(* Conservative parallel discrete-event exchange: the simulator's one
   event loop.

   It drives a coordinator Sim (chaos schedules, fault samplers, harness
   pacing) plus one Sim per simulated node in lookahead-bounded windows:

     nt = min next-event time over coordinator, nodes and barrier hooks
     h0 = max(horizon, nt)                  (idle-jump: skip dead air)
     h1 = min(limit, h0 + lookahead, next coordinator event after h0)

   Per window the coordinator events <= h0 run first, single-threaded,
   with every node clock parked at h0; then every node partition with
   work <= h1 advances independently (the parallel section); then the
   barrier hooks flush cross-partition work (frame outboxes, telemetry)
   and the horizon becomes h1. Coordinator events bound windows, so
   their interleaving with node work is a canonical, time-ordered
   property of the simulation, whatever the window geometry.

   Safety: the lookahead is at most the minimum network latency, and
   nodes interact only through frames, so a frame sent at s >= h0
   arrives at >= s + lookahead >= h1: barrier-scheduled deliveries
   never land in a partition's past.

   Batching amortizes the per-window cost without changing results:

   - Skip-flush: a barrier where no hook holds work skips the flush
     calls (flushing nothing is a no-op).
   - Solo windows: when no hook holds work and exactly one partition
     has events before the others, it runs inline under a cap that
     starts at min(limit, h0 + 8 lookaheads, next coordinator event,
     just before every other partition's next event) and shrinks to
     s + lookahead
     the moment it buffers cross-partition work at s (re-checked
     between events). Flushed sends still satisfy s + lookahead >= the
     new horizon and replay in the same canonical (time, src, seq)
     order the one-lookahead loop would use. Widening with two running
     partitions would not be sound (a receiver could pass a sender's
     shrunken cap), so only soloists widen — which is where the win
     is: token rotation keeps one node busy at a time.

   Determinism: one partition per node whatever [domains] is,
   partitions share no state and draw no randomness, and hooks replay
   cross-partition work in canonical order — so results are
   bitwise-identical for every domain count >= 1 and equal to those of
   the unbatched one-lookahead loop the test suite keeps as its
   reference (test/oracle.ml). DESIGN.md §11 and §13 give the full
   argument. *)

(* Widest solo window, in lookaheads: only caps how far a soloist runs
   before the coordinator looks again. *)
let horizon_factor = 8

(* [next] reports the earliest timestamp of work the hook has buffered,
   or [Vtime.never] when it holds none — a sentinel rather than an
   option, because the window loop folds these once per window (and
   once per *event* inside an adaptive solo window) and must not
   allocate. *)
type hook = { next : unit -> Vtime.t; flush : Vtime.t -> unit }

type stats = {
  mutable windows_run : int;
  mutable windows_batched : int; (* barriers whose flush was skipped *)
  mutable windows_widened : int; (* solo windows wider than one lookahead *)
  mutable max_window : Vtime.t; (* widest window so far *)
}

(* --- worker pool ----------------------------------------------------

   Spawned lazily on the first multi-domain window and kept parked
   between runs (see [shutdown]). Windows publish a slice of
   partitions; workers (and the coordinator itself) claim indices off a
   shared atomic counter — classic work stealing, safe because which
   partitions run is fixed before the window starts and partitions
   share no state.

   Wakeup is spin-then-block on both sides: windows arrive back to
   back in the hot loop, so workers burn a short bounded spin on the
   epoch counter (and the coordinator on the remaining-counter) before
   paying a futex round trip. The mutex still guards the sleeper
   bookkeeping, and the wait predicates re-check their condition under
   it, so no wakeup can be lost. *)

(* The claim and completion counters are the cross-domain write hot
   spots; give each its own cache line. An [Atomic.t] is a one-field
   box and the minor heap allocates sequentially, so a 7-word spacer
   allocated right after it keeps the next allocation off its line. *)
let padded_atomic v =
  let a = Atomic.make v in
  ignore (Sys.opaque_identity (Array.make 7 0));
  a

let spin_budget = 2000

type pool = {
  mutable pparts : Sim.t array;
  mutable pwork : int array; (* indices into [pparts] *)
  mutable pcount : int;
  mutable plimit : Vtime.t;
  mutable errors : (int * exn * Printexc.raw_backtrace) list; (* under m *)
  next : int Atomic.t;
  remaining : int Atomic.t;
  epoch : int Atomic.t;
  stop : bool Atomic.t;
  m : Mutex.t;
  work_cv : Condition.t; (* workers park here between windows *)
  done_cv : Condition.t; (* coordinator parks here for the barrier *)
  mutable sleepers : int; (* workers blocked on work_cv; under m *)
  mutable waiting : bool; (* coordinator blocked on done_cv; under m *)
  mutable doms : unit Domain.t list;
}

type t = {
  global : Sim.t;
  parts : Sim.t array;
  lookahead : Vtime.t;
  domains : int;
  mutable horizon : Vtime.t;
  mutable cap : Vtime.t; (* the running solo window's bound... *)
  mutable capped : bool; (* ...and whether it has shrunk *)
  mutable hooks : hook list; (* registration order *)
  work : int array; (* scratch: indices of the partitions active this window *)
  ptimes : Vtime.t array; (* scratch: per-partition next-event times *)
  stats : stats;
  mutable pool : pool option; (* lazily spawned; joined by [shutdown] *)
}

let create ?(domains = 1) ~lookahead ~global ~parts () =
  if lookahead <= 0 then
    invalid_arg "Exchange.create: lookahead must be positive";
  if domains < 1 then invalid_arg "Exchange.create: domains must be >= 1";
  {
    global;
    parts;
    lookahead;
    domains;
    horizon = Vtime.zero;
    cap = Vtime.zero;
    capped = false;
    hooks = [];
    (* slots [0 .. count-1] are overwritten before every window and
       never read past [count] *)
    work = Array.make (Array.length parts) 0;
    ptimes = Array.make (Array.length parts) Vtime.never;
    stats =
      {
        windows_run = 0;
        windows_batched = 0;
        windows_widened = 0;
        max_window = Vtime.zero;
      };
    pool = None;
  }

let horizon t = t.horizon
let lookahead t = t.lookahead
let global t = t.global
let parts t = t.parts
let hooks t = t.hooks

let stats t =
  (* snapshot: callers must not see later mutation *)
  {
    windows_run = t.stats.windows_run;
    windows_batched = t.stats.windows_batched;
    windows_widened = t.stats.windows_widened;
    max_window = t.stats.max_window;
  }

let events_processed t =
  Array.fold_left
    (fun acc p -> acc + Sim.events_processed p)
    (Sim.events_processed t.global)
    t.parts

let add_barrier_hook t ?(next = fun () -> Vtime.never) flush =
  t.hooks <- t.hooks @ [ { next; flush } ]

let pool_drain pool =
  let rec loop () =
    let i = Atomic.fetch_and_add pool.next 1 in
    if i < pool.pcount then begin
      (try Sim.run_until pool.pparts.(pool.pwork.(i)) pool.plimit
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock pool.m;
         pool.errors <- (i, e, bt) :: pool.errors;
         Mutex.unlock pool.m);
      if Atomic.fetch_and_add pool.remaining (-1) = 1 then begin
        (* Last item done: wake the coordinator if it parked. Taking
           the mutex orders the decrement before its predicate
           re-check, so the wakeup cannot be lost; a spinning
           coordinator needs no signal at all. *)
        Mutex.lock pool.m;
        if pool.waiting then Condition.broadcast pool.done_cv;
        Mutex.unlock pool.m
      end;
      loop ()
    end
  in
  loop ()

let rec pool_worker pool my_epoch =
  let rec spin n =
    if Atomic.get pool.stop then `Stop
    else if Atomic.get pool.epoch <> my_epoch then `Work
    else if n = 0 then `Block
    else begin
      Domain.cpu_relax ();
      spin (n - 1)
    end
  in
  let decision =
    match spin spin_budget with
    | `Block ->
      Mutex.lock pool.m;
      pool.sleepers <- pool.sleepers + 1;
      while (not (Atomic.get pool.stop)) && Atomic.get pool.epoch = my_epoch do
        Condition.wait pool.work_cv pool.m
      done;
      pool.sleepers <- pool.sleepers - 1;
      Mutex.unlock pool.m;
      if Atomic.get pool.stop then `Stop else `Work
    | d -> d
  in
  match decision with
  | `Stop | `Block -> ()
  | `Work ->
    let epoch = Atomic.get pool.epoch in
    pool_drain pool;
    pool_worker pool epoch

let pool_start ~workers =
  let pool =
    {
      pparts = [||];
      pwork = [||];
      pcount = 0;
      plimit = Vtime.zero;
      errors = [];
      next = padded_atomic 0;
      remaining = padded_atomic 0;
      epoch = padded_atomic 0;
      stop = Atomic.make false;
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      sleepers = 0;
      waiting = false;
      doms = [];
    }
  in
  pool.doms <-
    List.init workers (fun _ -> Domain.spawn (fun () -> pool_worker pool 0));
  pool

let get_pool t =
  match t.pool with
  | Some pool -> pool
  | None ->
    let pool = pool_start ~workers:(t.domains - 1) in
    t.pool <- Some pool;
    pool

let shutdown t =
  match t.pool with
  | None -> ()
  | Some pool ->
    Atomic.set pool.stop true;
    Mutex.lock pool.m;
    Condition.broadcast pool.work_cv;
    Mutex.unlock pool.m;
    List.iter Domain.join pool.doms;
    pool.doms <- [];
    t.pool <- None

let live_workers t =
  match t.pool with None -> 0 | Some pool -> List.length pool.doms

(* Run [count] partitions from [work] up to [limit] on the pool, the
   coordinator stealing work alongside the workers. Re-raises the
   lowest-indexed worker exception (a deterministic choice, since which
   partitions fail is deterministic). *)
let pool_run_window pool parts work count limit =
  pool.pparts <- parts;
  pool.pwork <- work;
  pool.pcount <- count;
  pool.plimit <- limit;
  pool.errors <- [];
  Atomic.set pool.remaining count;
  Atomic.set pool.next 0;
  Atomic.incr pool.epoch;
  Mutex.lock pool.m;
  if pool.sleepers > 0 then Condition.broadcast pool.work_cv;
  Mutex.unlock pool.m;
  pool_drain pool;
  let rec wait_spin n =
    if Atomic.get pool.remaining = 0 then ()
    else if n = 0 then begin
      Mutex.lock pool.m;
      pool.waiting <- true;
      while Atomic.get pool.remaining > 0 do
        Condition.wait pool.done_cv pool.m
      done;
      pool.waiting <- false;
      Mutex.unlock pool.m
    end
    else begin
      Domain.cpu_relax ();
      wait_spin (n - 1)
    end
  in
  wait_spin spin_budget;
  let errors =
    if pool.errors == [] then []
    else begin
      Mutex.lock pool.m;
      let e = pool.errors in
      Mutex.unlock pool.m;
      e
    end
  in
  match List.sort (fun (i, _, _) (j, _, _) -> compare i j) errors with
  | (_, e, bt) :: _ -> Printexc.raise_with_backtrace e bt
  | [] -> ()

(* --- the window loop ------------------------------------------------

   This runs a few hundred thousand times per simulated second, so it
   reads only the allocation-free sentinel peeks ([Sim.next_time_raw],
   hook [next] returning [Vtime.never]) and builds no closures. A stale
   peek only ever quotes an earlier (cancelled) time, which costs at
   most one empty window. *)

let rec hooks_next_from hooks acc =
  match hooks with
  | [] -> acc
  | (h : hook) :: rest -> hooks_next_from rest (Vtime.min acc (h.next ()))

let hooks_next t = hooks_next_from t.hooks Vtime.never

(* The barrier's skip test: stops at the first hook holding work
   (registration order puts the frame outbox, the usual holder,
   first). *)
let rec hooks_all_empty hooks =
  match hooks with
  | [] -> true
  | (h : hook) :: rest -> h.next () = Vtime.never && hooks_all_empty rest

let rec flush_hooks hooks h1 =
  match hooks with
  | [] -> ()
  | (h : hook) :: rest ->
    h.flush h1;
    flush_hooks rest h1

(* Barrier at [h1]. Every barrier leaves every hook empty: it flushes
   them all unless all were already empty — the invariant [run_until]
   relies on to skip the hook scan at a window's start. Hooks may rewind the
   coordinator clock to replay items at their own timestamps, so it is
   normalized afterwards. *)
let barrier t h0 h1 =
  let st = t.stats in
  st.windows_run <- st.windows_run + 1;
  let width = Vtime.sub h1 h0 in
  if Vtime.(width > st.max_window) then st.max_window <- width;
  if hooks_all_empty t.hooks then
    st.windows_batched <- st.windows_batched + 1
  else flush_hooks t.hooks h1;
  Sim.unsafe_set_clock t.global h1;
  t.horizon <- h1

(* Park every partition clock that lags [time] at [time]. Sound at a
   coordinator turn and at the end of [run_until], where no partition
   holds an earlier event: node-side work done from outside a partition
   (a chaos op, harness code between calls) then stamps telemetry and
   arms timers at the true time, not at the node's last event. *)
let sync_clocks parts time =
  for i = 0 to Array.length parts - 1 do
    let p = Array.unsafe_get parts i in
    if Vtime.(Sim.now p < time) then Sim.unsafe_set_clock p time
  done

(* The soloist's cap, re-read by [Sim.drain_while] before each event:
   it shrinks to s + lookahead once cross-partition work buffered at s
   appears. It shrinks at most once: all such work comes from the
   soloist, whose clock only moves forward, so later work can only
   propose a later bound. The cap lives in a field, so a solo window
   builds no closure. *)
let solo_poll t =
  if not t.capped then begin
    let s = hooks_next t in
    if s <> Vtime.never then begin
      t.capped <- true;
      let c = Vtime.add s t.lookahead in
      if Vtime.(c < t.cap) then t.cap <- c
    end
  end;
  t.cap

(* Fill [ptimes] with every partition's next-event time; their min. *)
let scan_parts t =
  let m = ref Vtime.never in
  for i = 0 to Array.length t.parts - 1 do
    let s = Sim.next_time_raw (Array.unsafe_get t.parts i) in
    Array.unsafe_set t.ptimes i s;
    if Vtime.(s < !m) then m := s
  done;
  !m

(* One window starting at [h0]; [gnext] and [hnext] are the
   coordinator's and the hooks' next work after the coordinator's
   turn. *)
let window t h0 ~gnext ~hnext limit =
  let parts = t.parts and ptimes = t.ptimes in
  let bound = Vtime.min limit gnext in
  let h1 = Vtime.min bound (Vtime.add h0 t.lookahead) in
  (* The work set: partitions with events <= h1. *)
  let count = ref 0 and solo = ref 0 in
  for i = 0 to Array.length parts - 1 do
    if Vtime.(Array.unsafe_get ptimes i <= h1) then begin
      Array.unsafe_set t.work !count i;
      solo := i;
      incr count
    end
  done;
  if !count = 1 && hnext = Vtime.never then begin
    (* Solo window: one partition, inline, under a shrinking cap that
       starts at the widest window and stops just short of every other
       partition's next event. Short of it: events of two partitions at
       one instant must share a window, or their buffered work would
       reach the barrier merge out of canonical order. Every other
       partition's next event is > h1, so the cap never drops below the
       plain window bound. *)
    t.cap <- Vtime.min bound (Vtime.add h0 (horizon_factor * t.lookahead));
    t.capped <- false;
    for i = 0 to Array.length ptimes - 1 do
      let tm = Array.unsafe_get ptimes i in
      if i <> !solo && Vtime.(tm <= t.cap) then t.cap <- tm - 1
    done;
    let p = parts.(!solo) in
    Sim.drain_while p ~cap:solo_poll t;
    (* One final poll: work buffered by the last event drained has not
       shrunk the cap yet, and closing the window past its s + lookahead
       would flush deliveries into the past of partitions an earlier
       widened window already advanced. *)
    let h1 = solo_poll t in
    Sim.run_until p h1;
    if Vtime.(h1 > Vtime.add h0 t.lookahead) then
      t.stats.windows_widened <- t.stats.windows_widened + 1;
    barrier t h0 h1
  end
  else begin
    if t.domains > 1 && !count > 1 then
      pool_run_window (get_pool t) parts t.work !count h1
    else
      for i = 0 to !count - 1 do
        Sim.run_until parts.(t.work.(i)) h1
      done;
    barrier t h0 h1
  end

(* The loop keeps going while any event <= limit is pending: an adaptive
   window can land the horizon exactly on [limit] without any window
   starting there, and a coordinator event or another partition's event
   (the one that capped the solo window) at precisely [limit] must still
   run — one more zero-width window does it. *)
let run_until t limit =
  if Vtime.(limit >= t.horizon) then begin
    (* Hooks can hold work at a window's start only before the first
       window (work enqueued from outside any window, e.g. the bootstrap
       token) and after a coordinator turn: every barrier leaves them
       empty. *)
    let hnext = ref (hooks_next t) in
    while
      t.horizon < limit
      || Vtime.(Sim.next_time_raw t.global <= limit)
      || Vtime.(scan_parts t <= limit)
    do
      let nt =
        Vtime.min (Sim.next_time_raw t.global) (Vtime.min (scan_parts t) !hnext)
      in
      if Vtime.(nt > limit) then begin
        (* Nothing pending inside [limit]: run the coordinator out. *)
        Sim.run_until t.global limit;
        t.horizon <- limit
      end
      else begin
        let h0 = Vtime.max t.horizon nt in
        (* Coordinator turn: its events <= h0 run before any partition
           passes h0, with every node clock parked at h0; its later
           events bound the window instead. They may schedule partition
           work, so the partitions are rescanned after a drain. The
           clock then parks at h0, so sends stamped during the window
           never see a coordinator time from later in it. *)
        if Vtime.(Sim.next_time_raw t.global <= h0) then begin
          sync_clocks t.parts h0;
          Sim.drain_until t.global h0;
          ignore (scan_parts t);
          hnext := hooks_next t
        end;
        Sim.unsafe_set_clock t.global h0;
        window t h0 ~gnext:(Sim.next_time_raw t.global) ~hnext:!hnext limit;
        hnext := Vtime.never
      end
    done;
    (* Park the idle partitions at [limit] too, so harness code acting
       between calls sees every node clock read the cluster clock. *)
    sync_clocks t.parts limit
  end
