(* Reference scheduler for the exchange: the plain conservative window
   loop, with none of the library's batching.

   Every window is at most one lookahead wide, every barrier flushes
   every hook, and every time is an exact peek — no skip-flush, no
   adaptive solo windows, no cached scans. What it keeps is the
   exchange's semantics, which the batched loop must reproduce bit for
   bit:

   - windows are [h0, h1] with h0 = max(horizon, next event anywhere)
     (idle-jump) and h1 = min(limit, h0 + lookahead, next coordinator
     event);
   - coordinator events <= h0 run first, single-threaded, after every
     node clock is parked at h0; then each partition runs its events
     <= h1; then the hooks flush in registration order;
   - on return every event <= limit has run and every clock reads
     limit.

   The tests drive the same system (the same simulators and hooks) with
   this loop and with [Exchange.run_until] and require identical
   results. *)

open Totem_engine

type t = {
  global : Sim.t;
  parts : Sim.t array;
  lookahead : Vtime.t;
  hooks : Exchange.hook list;
  mutable horizon : Vtime.t;
  mutable windows : int;
}

let of_exchange ex =
  {
    global = Exchange.global ex;
    parts = Exchange.parts ex;
    lookahead = Exchange.lookahead ex;
    hooks = Exchange.hooks ex;
    horizon = Exchange.horizon ex;
    windows = 0;
  }

let next sim =
  match Sim.next_event_time sim with Some time -> time | None -> Vtime.never

let parts_next t = Array.fold_left (fun m p -> Vtime.min m (next p)) Vtime.never t.parts

let hooks_next t =
  List.fold_left
    (fun m (h : Exchange.hook) -> Vtime.min m (h.next ()))
    Vtime.never t.hooks

let park t time =
  Array.iter
    (fun p -> if Vtime.(Sim.now p < time) then Sim.unsafe_set_clock p time)
    t.parts

let run_until t limit =
  while
    t.horizon < limit
    || Vtime.(next t.global <= limit)
    || Vtime.(parts_next t <= limit)
  do
    let nt = Vtime.min (next t.global) (Vtime.min (parts_next t) (hooks_next t)) in
    if Vtime.(nt > limit) then begin
      Sim.run_until t.global limit;
      t.horizon <- limit
    end
    else begin
      let h0 = Vtime.max t.horizon nt in
      if Vtime.(next t.global <= h0) then begin
        park t h0;
        Sim.drain_until t.global h0
      end;
      Sim.unsafe_set_clock t.global h0;
      let h1 =
        Vtime.min limit (Vtime.min (next t.global) (Vtime.add h0 t.lookahead))
      in
      Array.iter (fun p -> if Vtime.(next p <= h1) then Sim.run_until p h1) t.parts;
      List.iter (fun (h : Exchange.hook) -> h.flush h1) t.hooks;
      Sim.unsafe_set_clock t.global h1;
      t.horizon <- h1;
      t.windows <- t.windows + 1
    end
  done;
  park t limit
