(** Bounded exhaustive model checking over chaos-op interleavings.

    Where {!Campaign.random} samples the fault space, the explorer
    enumerates it: every interleaving of a small op alphabet
    (fail/heal, partition/unpartition, corrupt-on/off per controllable
    network) up to a configured depth, with ops applied at
    token-rotation granularity — decision point [i] is virtual time
    [settle + i * gap], where [gap] defaults to a calibrated multiple
    of the measured token-rotation time. Every path runs through the
    deterministic {!Runner} with the full {!Invariant} monitor set
    armed, so a violating interleaving is immediately a shrinkable,
    replayable [.chaos.json] counterexample.

    State-fingerprint deduplication prunes symmetric interleavings: at
    each decision point the explorer hashes a projection of cluster
    state (per-node membership, ring id, aru/frontier, problem
    counters and reception-count monitors, fault marks) together with
    the symbolic environment (which faults are currently applied, and
    since when). Two prefixes of equal length with equal fingerprints
    are extended identically by construction of the schedule, so the
    subtree under the second is skipped and its leaves are counted as
    pruned. The fingerprint is a {e projection} — it deliberately
    omits byte-level buffer state — so the reduction is approximate:
    it can prune paths a full state hash would keep, never the other
    way around for the observables it tracks. Fingerprints are read at
    [Cluster.run_until] boundaries, so counts are identical for every
    [sim_domains].

    The second mode, {!stabilize}, leaves the fault schedule entirely:
    it perturbs protocol-internal state (forged tokens with skewed
    seq/aru/hops, overwritten problem counters, inflated
    reception-count monitors) at [N] points and checks the protocol
    returns to an operational, progressing ring — the
    self-stabilization payoff. *)

type config = {
  num_nodes : int;  (** 2–3 is the intended range *)
  num_nets : int;
  style : Totem_rrp.Style.t;
  seed : int;
  wire : bool;  (** byte-wire mode for every explored run *)
  depth : int;  (** ops per interleaving *)
  alphabet : Campaign.op list;
  gap : Totem_engine.Vtime.t option;
      (** decision-point spacing; [None] = calibrate to the token
          rotation (see {!calibrated_gap}) *)
  settle : Totem_engine.Vtime.t;  (** quiet time before decision 0 *)
  hold : Totem_engine.Vtime.t;
      (** time after the last decision before the administrator heal *)
  quiesce : Totem_engine.Vtime.t;
  monitor : Invariant.config;
  sim_domains : int;
  reinstate : bool;
      (** run every explored campaign with the reinstatement protocol
          on, and include each node's probation state and flap count in
          the state fingerprint *)
}

val make :
  ?num_nodes:int ->
  ?num_nets:int ->
  ?style:Totem_rrp.Style.t ->
  ?seed:int ->
  ?wire:bool ->
  ?depth:int ->
  ?alphabet:Campaign.op list ->
  ?gap:Totem_engine.Vtime.t ->
  ?settle:Totem_engine.Vtime.t ->
  ?hold:Totem_engine.Vtime.t ->
  ?quiesce:Totem_engine.Vtime.t ->
  ?monitor:Invariant.config ->
  ?sim_domains:int ->
  ?reinstate:bool ->
  unit ->
  config
(** Defaults: 3 nodes, 2 nets, active style, seed 42, wire on, depth 3,
    {!default_alphabet}, calibrated gap, 40 ms settle, 40 ms hold,
    500 ms quiesce, {!Invariant.default}, one simulator worker domain,
    reinstatement off. *)

val default_alphabet : num_nets:int -> Campaign.op list
(** Fail/heal, corrupt-on (p = 0.5)/corrupt-off and a node-0-to-node-1
    directed partition/unpartition for every network except the last —
    the paper's operating assumption that one network survives, which
    also keeps {!Campaign.tolerated} true on every path so the masking
    invariants stay armed. @raise Invalid_argument if [num_nets < 2]. *)

val gray_alphabet : num_nets:int -> Campaign.op list
(** Gray-failure ops in on/off pairs for every network except the last:
    heavy Gilbert–Elliott burst loss, 4x latency inflation with spikes,
    and directional node-0-to-node-1 loss. Designed to interleave
    condemnation with probation, so pair it with [reinstate].
    @raise Invalid_argument if [num_nets < 2]. *)

val calibrated_gap : config -> Totem_engine.Vtime.t
(** The decision-point spacing actually used: [config.gap] when given,
    otherwise twice the token-rotation time measured on a clean run of
    the same cluster shape at the default worker count (floored at 5 ms so
    fault effects — token timeouts, problem-counter increments — can
    land between consecutive decisions). Deterministic per config. *)

val leaf_campaign :
  config -> gap:Totem_engine.Vtime.t -> Campaign.op list -> Campaign.t
(** The campaign a full-length path denotes: op [i] at
    [settle + i * gap], duration [settle + depth * gap + hold], fixed
    deterministic burst traffic spread across the decision window (the
    same traffic for every path and every prefix, which is what makes
    prefix fingerprints meaningful). Also accepts paths shorter than
    [depth] — used to re-run a violating prefix in standard leaf form
    so shrinking and replay apply unchanged. *)

type fingerprint = int64

val path_fingerprints :
  ?prepare:(Totem_cluster.Cluster.t -> unit) ->
  config ->
  gap:Totem_engine.Vtime.t ->
  Campaign.op list ->
  Runner.result * fingerprint list
(** Run one full path and return its result plus the fingerprint at
    every decision point (state just before each op lands, plus one
    after the last). Pure re-execution: calling it twice — or replaying
    the same path at any [sim_domains] — gives byte-identical results
    and fingerprint sequences. *)

type stats = {
  alphabet_size : int;
  total_leaves : int;  (** [alphabet_size ^ depth] *)
  leaves_explored : int;  (** leaf end-games actually run *)
  leaves_pruned : int;  (** leaves skipped under deduplicated prefixes *)
  interior_runs : int;  (** prefix re-executions for fingerprints *)
  distinct_states : int;  (** size of the (depth, fingerprint) set *)
}

type found = {
  f_path : Campaign.op list;  (** the violating interleaving *)
  f_campaign : Campaign.t;  (** its leaf-form campaign *)
  f_result : Runner.result;  (** probe-free run: violations non-empty *)
}

type outcome = {
  o_gap : Totem_engine.Vtime.t;
  o_stats : stats;
  o_found : found option;
}

val explore :
  ?prepare:(Totem_cluster.Cluster.t -> unit) -> config -> outcome
(** Depth-first enumeration with re-execution (no simulator snapshots:
    every prefix and leaf is a fresh deterministic run). Stops at the
    first violating path; [explored + pruned = total_leaves] whenever
    no violation is found. [prepare] is threaded into every run — the
    mutation canary uses it to weaken the protocol under test.
    @raise Invalid_argument on an empty alphabet or [depth < 1]. *)

val to_counterexample :
  ?prepare:(Totem_cluster.Cluster.t -> unit) ->
  ?shrunk:bool ->
  config ->
  Campaign.t ->
  Runner.counterexample
(** Re-run the campaign probe-free under the config's monitor and
    package the first violation (or [None]) with its flight-recorder
    history, ready for {!Runner.write_counterexample}. *)

(** {1 Arbitrary-state perturbation ([--arbitrary-state N])} *)

type stabilize_report = {
  s_points : int;
  s_perturbations : (Totem_engine.Vtime.t * string) list;
      (** what was injected, and when *)
  s_operational : bool;  (** every node operational at end of run *)
  s_common_ring : bool;  (** all nodes on one ring id at end of run *)
  s_progressed : bool;
      (** node 0 delivered new messages after the last perturbation *)
  s_violations : Invariant.violation list;
}

val stabilized : stabilize_report -> bool
(** Operational, on a common ring, progressing, no violations. *)

val stabilize : config -> points:int -> stabilize_report
(** Self-stabilization check: run the clean campaign (no fault steps)
    but, at [points] decision points, overwrite protocol-internal state
    through the public API — forged tokens via [Srp.token_arrived]
    (skewed seq/aru, stale or far-future hops), problem counters via
    [Active.set_problem_counter], reception-count monitors via
    [Monitor.note] — with a deterministic PRNG drawing from
    [config.seed]. A relaxed monitor is used (a forged token {e is} a
    transient fault; membership churn and token gaps while the ring
    reforms are the expected recovery path), and the report instead
    checks the protocol returned to a live, progressing ring.
    Perturbations mutate node state from run boundaries, where every
    node clock reads the cluster clock; the mode runs at the default
    worker count ([sim_domains] is ignored) and its runs are not
    replayable counterexamples.
    @raise Invalid_argument if [points < 1]. *)
