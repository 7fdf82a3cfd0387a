(** Conservative parallel discrete-event exchange.

    Runs a coordinator {!Sim} plus one per-node {!Sim} in
    lookahead-bounded windows; node partitions inside one window run in
    parallel on OCaml 5 domains, and cross-partition work (frame sends,
    telemetry) is exchanged at barrier points by registered hooks.

    The lookahead must not exceed the minimum cross-partition delivery
    latency: then a frame sent inside a window at [s >= h0] arrives at
    [>= s + latency >= h1], so barrier-scheduled deliveries never land
    in any partition's past.

    Coordinator events are window boundaries: a window never extends
    past the coordinator's next pending event, so a coordinator event
    at [tg] always runs after every partition event [<= tg] and before
    any partition passes [tg] — a canonical, time-ordered interleaving
    that no window geometry can change.

    Window batching amortizes barrier overhead without changing
    results: barriers where no hook holds work skip the flush calls,
    and when exactly one partition owns every event within eight
    lookaheads it runs inline under a cap that shrinks the moment it
    buffers cross-partition work. See DESIGN.md §13 for the safety
    argument; the test suite checks this loop against an unbatched
    one-lookahead reference scheduler.

    Determinism: partitioning is structural (one partition per node
    regardless of [domains]), partitions are pure (see {!Partition}),
    and hooks replay cross-partition work in canonical
    (time, source, seq) order — so results are bitwise-identical for
    every [domains >= 1] and invariant under window boundaries. *)

type t

type hook = { next : unit -> Vtime.t; flush : Vtime.t -> unit }
(** A barrier hook, see {!add_barrier_hook}. *)

type stats = {
  mutable windows_run : int;  (** barriers executed *)
  mutable windows_batched : int;  (** barriers whose flush was skipped *)
  mutable windows_widened : int;
      (** adaptive solo windows wider than one lookahead *)
  mutable max_window : Vtime.t;  (** widest window so far *)
}

val create :
  ?domains:int ->
  lookahead:Vtime.t ->
  global:Sim.t ->
  parts:Sim.t array ->
  unit ->
  t
(** [create ~domains ~lookahead ~global ~parts ()] builds an exchange
    over the coordinator [global] and per-node [parts]. [domains]
    (default 1) is the number of OS domains used for the parallel
    section; [1] runs partitions inline with no spawning.
    @raise Invalid_argument if [lookahead <= 0] or [domains < 1]. *)

val add_barrier_hook :
  t -> ?next:(unit -> Vtime.t) -> (Vtime.t -> unit) -> unit
(** [add_barrier_hook t ~next flush] registers a barrier hook, run
    after every window in registration order. [flush h1] must hand all
    buffered cross-partition work over (scheduling deliveries, draining
    telemetry); [next ()] reports the earliest timestamp of work the
    hook is still holding — [Vtime.never] when it holds none (default:
    always [Vtime.never]) — so idle-jumps cannot skip over it, barriers
    know whether a flush can be skipped and solo windows know when to
    shrink. [next] runs on the hottest paths (a few times per window,
    once per event inside a solo window), so it must be cheap and
    allocation-free, and it must never under-report.
    Hooks may rewind the coordinator clock via [Sim.unsafe_set_clock]
    to replay items at their own timestamps; the exchange
    re-normalizes it. *)

val run_until : t -> Vtime.t -> unit
(** Advances the whole system to [limit]: all partitions have processed
    every event [<= limit], all hooks have flushed, and the coordinator
    and every partition clock read [limit]. Worker-domain exceptions
    are re-raised (lowest partition index first). *)

val shutdown : t -> unit
(** Joins the worker-domain pool, if one was spawned. Idempotent; the
    pool respawns on the next multi-domain [run_until], so a shut-down
    exchange remains usable. Call on cluster teardown so no domains
    outlive the simulation. *)

val live_workers : t -> int
(** Number of live worker domains (0 after {!shutdown} or before the
    first multi-domain window). *)

val horizon : t -> Vtime.t
(** The barrier the system has fully reached. *)

val lookahead : t -> Vtime.t

val global : t -> Sim.t
val parts : t -> Sim.t array

val hooks : t -> hook list
(** The registered barrier hooks, in registration order: with {!global}
    and {!parts}, everything a reference scheduler needs to drive the
    same system window by window. *)

val stats : t -> stats
(** Snapshot of the window counters (copies; safe to retain). *)

val events_processed : t -> int
(** Total events processed across the coordinator and all node
    partitions. *)
