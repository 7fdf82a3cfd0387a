(* The pure per-node scheduler: one virtual clock, one event heap, one
   timer wheel, one tie counter. This is the unit the parallel simulator
   core replicates per node — it owns no randomness and no global state,
   so a partition advanced to a horizon is a deterministic function of
   the events fed to it, regardless of which domain ran it.

   One-shot events (frame deliveries, CPU completions) live in the
   heap; cancel/re-arm protocol timers live in the wheel. A single tie
   counter spans both, so events popping from either structure form one
   globally FIFO-stable (time, tie) sequence — run order is identical
   to a single-queue simulator. *)

type t = {
  mutable clock : Vtime.t;
  queue : (unit -> unit) Event_queue.t;
  wheel : (unit -> unit) Timer_wheel.t;
  mutable next_tie : int;
  mutable events : int;
}

type handle =
  | Heap of Event_queue.handle
  | Wheel of Timer_wheel.handle

let create () =
  {
    clock = Vtime.zero;
    queue = Event_queue.create ();
    wheel = Timer_wheel.create ();
    next_tie = 0;
    events = 0;
  }

let now t = t.clock
let events_processed t = t.events

let take_tie t =
  let tie = t.next_tie in
  t.next_tie <- tie + 1;
  tie

let schedule_at t ~time f =
  if Vtime.(time < t.clock) then
    invalid_arg "Partition.schedule_at: time is in the past";
  Heap (Event_queue.push_tie t.queue ~time ~tie:(take_tie t) f)

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Partition.schedule: negative delay";
  schedule_at t ~time:(Vtime.add t.clock delay) f

let schedule_timer t ~delay f =
  if delay < 0 then invalid_arg "Partition.schedule_timer: negative delay";
  let time = Vtime.add t.clock delay in
  Wheel (Timer_wheel.push t.wheel ~time ~tie:(take_tie t) f)

let cancel t = function
  | Heap h -> ignore (Event_queue.cancel t.queue h)
  | Wheel h -> ignore (Timer_wheel.cancel t.wheel h)

let next_event_time t =
  let time =
    Vtime.min
      (Event_queue.live_root_time t.queue)
      (Timer_wheel.min_live_time t.wheel)
  in
  if time = Vtime.never then None else Some time

(* Allocation-free peek for the exchange's per-window horizon scan.
   Only the minimum time matters there, never which structure holds it,
   and a stale (earlier) bound is harmless, so nothing is pruned. *)
let[@inline] next_time_raw t =
  Vtime.min
    (Event_queue.peek_time_raw t.queue)
    (Timer_wheel.peek_time_raw t.wheel)

(* The pop loop. [ht] and [wt] are the exact live heads of the heap and
   the wheel (both peeks prune cancelled entries); the heap wins a tie
   with the wheel only by tie rank, preserving the global FIFO order at
   equal times. Nothing here allocates — it runs once per event. *)
let fire t ht wt =
  let f =
    if
      Vtime.(ht < wt)
      || (ht = wt && Event_queue.root_tie t.queue < Timer_wheel.min_tie t.wheel)
    then begin
      t.clock <- ht;
      Event_queue.take_root t.queue
    end
    else begin
      t.clock <- wt;
      Timer_wheel.take_min t.wheel
    end
  in
  t.events <- t.events + 1;
  f ()

let step t =
  let ht = Event_queue.live_root_time t.queue in
  let wt = Timer_wheel.min_live_time t.wheel in
  if Vtime.min ht wt = Vtime.never then false
  else begin
    fire t ht wt;
    true
  end

(* Pop and run events while the earliest timestamp is within [cap arg],
   re-reading the cap between events. The adaptive solo window in the
   exchange layer runs one partition far past the static lookahead
   bound under a cap that shrinks the moment the partition buffers
   cross-partition work (a frame entering an outbox): re-evaluating the
   cap per pop is what lets the shrink take effect before the next
   event fires. The clock follows the events and is NOT bumped to the
   cap at the end. *)
let rec drain_while t ~cap arg =
  let ht = Event_queue.live_root_time t.queue in
  let wt = Timer_wheel.min_live_time t.wheel in
  let time = Vtime.min ht wt in
  if time <> Vtime.never && Vtime.(time <= cap arg) then begin
    fire t ht wt;
    drain_while t ~cap arg
  end

(* The exchange drains the coordinator partition this way, so its clock
   reads the time of the event being executed, never a horizon the
   window has not reached. *)
let drain_until t limit = drain_while t ~cap:Fun.id limit

let run_until t limit =
  drain_until t limit;
  t.clock <- Vtime.max t.clock limit

let run t = while step t do () done

let pending t = Event_queue.length t.queue + Timer_wheel.length t.wheel

(* Exchange-only escape hatch: the coordinator replays buffered
   cross-partition work (merged sends, drained telemetry) with the
   clock set to each item's own timestamp, which can rewind within the
   just-completed window. Never call this from model code. *)
let[@inline] unsafe_set_clock t time = t.clock <- time
