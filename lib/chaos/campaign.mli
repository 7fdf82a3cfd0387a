(** Fault campaigns: a serializable schedule of correlated faults plus
    the cluster shape and workload that make the run reproducible.

    A campaign is everything the chaos runner needs to re-execute a run
    bit-for-bit: cluster configuration (nodes, networks, replication
    style, PRNG seed), the traffic, the fault schedule, and how long to
    run. Unlike {!Totem_cluster.Scenario.action}, every operation here
    is a plain datum — no closures — so a campaign round-trips through
    the [.chaos.json] counterexample format (see CHAOS.md). *)

type op =
  | Fail_net of int  (** total network failure *)
  | Heal_net of int  (** administrator repair: clears faults and marks *)
  | Set_loss of int * float  (** sporadic per-frame loss probability *)
  | Set_corrupt of int * float
      (** per-frame in-flight corruption probability; in byte-wire
          campaigns ([wire = true]) frames are damaged and discarded by
          the receiving NIC's CRC/decode check, in reference mode they
          are dropped — either way the RRP sees loss (Sec. 3) *)
  | Set_burst_loss of int * float * float
      (** net, p_enter, p_exit: Gilbert–Elliott bursty loss — good->bad
          with [p_enter] per delivery, bad->good with [p_exit]; the bad
          state drops every frame. [p_enter = 0] disables. *)
  | Set_delay_factor of int * float * float
      (** net, factor, spike_prob: latency inflation (clamped to
          [>= 1.0]) plus spikes up to 10 x nominal latency *)
  | Set_dir_loss of int * int * int * float
      (** net, src, dst, p: asymmetric loss on the directed path;
          [p = 0] clears *)
  | Set_duplicate of int * float  (** net, p: per-delivery duplication *)
  | Set_reorder of int * float
      (** net, p: per-delivery reordering — breaks the per-receiver
          FIFO assumption, must be absorbed by SRP *)
  | Block_send of int * int  (** node, net: transmit-path fault (Sec. 3) *)
  | Unblock_send of int * int
  | Block_recv of int * int  (** node, net: receive-path fault (Sec. 3) *)
  | Unblock_recv of int * int
  | Partition of int * int list * int list
      (** net, from, to: directed subset-to-subset delivery fault *)
  | Unpartition of int * int list * int list
  | Crash of int  (** processor fault — outside the masked fault model *)
  | Recover of int

type step = { at : Totem_engine.Vtime.t; op : op }

type traffic =
  | Bursts of (int * int * int * Totem_engine.Vtime.t) list
      (** (node, size, count, at): finite workload, enables the
          everything-delivered end check *)
  | Saturate of int
      (** every node always ready with a message of this size *)

type t = {
  num_nodes : int;
  num_nets : int;
  style : Totem_rrp.Style.t;
  seed : int;
  duration : Totem_engine.Vtime.t;  (** fault-and-traffic window *)
  quiesce : Totem_engine.Vtime.t;
      (** after [duration] everything is healed and the cluster runs
          this much longer before the end-of-run checks *)
  traffic : traffic;
  steps : step list;
  wire : bool;
      (** run the cluster in byte-faithful wire mode
          ([Config.wire_bytes]): payloads serialized + CRC-checked at
          the NICs, corruption bit-accurate *)
  reinstate : bool;
      (** run the cluster with the condemned-network reinstatement
          protocol ([Rrp_config.reinstate]): condemned networks probe
          and may rejoin; the reinstatement invariants (flap damping
          bounded, gray re-condemnation) arm *)
}

val make :
  ?num_nodes:int ->
  ?num_nets:int ->
  ?style:Totem_rrp.Style.t ->
  ?seed:int ->
  ?duration:Totem_engine.Vtime.t ->
  ?quiesce:Totem_engine.Vtime.t ->
  ?traffic:traffic ->
  ?wire:bool ->
  ?reinstate:bool ->
  step list ->
  t
(** Steps are stably sorted by time; same-instant steps keep their list
    order, which is also their execution order. Defaults mirror
    {!Totem_cluster.Config.make}: 4 nodes, 2 nets, passive, seed 42,
    2 s window, 5 s quiesce, 1 KB saturation. *)

val validate : t -> (unit, string) result
(** Bounds-checks every node/net index, burst, loss value and the style
    against the network count. *)

(** {1 Combinators}

    Each combinator returns a step list; concatenate freely and hand the
    result to {!make}. *)

val flap :
  net:int ->
  period:Totem_engine.Vtime.t ->
  ?duty:float ->
  from_:Totem_engine.Vtime.t ->
  until:Totem_engine.Vtime.t ->
  unit ->
  step list
(** Network flapping: fail at each period start, heal after
    [duty * period] (default 0.5), repeating in [\[from_, until)]. A
    trailing down window is healed at [until].
    @raise Invalid_argument unless [0 < duty < 1] and [period > 0]. *)

val rolling_partition :
  net:int ->
  nodes:int list ->
  dwell:Totem_engine.Vtime.t ->
  from_:Totem_engine.Vtime.t ->
  rounds:int ->
  step list
(** Round [r] blocks delivery from [nodes[r mod n]] to
    [nodes[(r+1) mod n]] (via the fabric's [block_pair]) for [dwell],
    then lifts it as the next round starts — a partition that rotates
    through the membership. *)

val loss_ramp :
  net:int ->
  from_:Totem_engine.Vtime.t ->
  until:Totem_engine.Vtime.t ->
  stages:int ->
  peak:float ->
  step list
(** Loss climbing linearly to [peak] in [stages] equal stages across
    [\[from_, until)], then cleared at [until]. *)

val corrupt_window :
  net:int ->
  from_:Totem_engine.Vtime.t ->
  until:Totem_engine.Vtime.t ->
  p:float ->
  step list
(** Per-frame corruption probability [p] on [net] for the window,
    cleared at [until].
    @raise Invalid_argument unless [p] is in [\[0,1\]]. *)

val corruption_ramp :
  net:int ->
  from_:Totem_engine.Vtime.t ->
  until:Totem_engine.Vtime.t ->
  stages:int ->
  peak:float ->
  step list
(** Corruption climbing linearly to [peak] in [stages] equal stages
    across [\[from_, until)], then cleared at [until] — the corruption
    analogue of {!loss_ramp}. *)

val gray_window :
  net:int ->
  from_:Totem_engine.Vtime.t ->
  until:Totem_engine.Vtime.t ->
  p_enter:float ->
  p_exit:float ->
  ?factor:float ->
  ?spike:float ->
  unit ->
  step list
(** A gray-failure episode: Gilbert–Elliott bursty loss plus latency
    inflation ([factor], default 1.0) with spike probability [spike]
    (default 0) for the window, everything reset at [until].
    @raise Invalid_argument unless probabilities are in [\[0,1\]]. *)

val flap_storm :
  net:int ->
  from_:Totem_engine.Vtime.t ->
  cycles:int ->
  storm:Totem_engine.Vtime.t ->
  calm:Totem_engine.Vtime.t ->
  step list
(** [cycles] alternations of heavy bursty loss ([storm] long) and a
    clean window ([calm] long): with reinstatement on the network
    condemns, probes during the calm, re-condemns under the next storm —
    and flap damping must converge it to permanently condemned. *)

val gilbert_ramp :
  net:int ->
  from_:Totem_engine.Vtime.t ->
  until:Totem_engine.Vtime.t ->
  stages:int ->
  peak:float ->
  step list
(** Bursty loss whose steady-state rate climbs linearly to [peak] in
    [stages] stages (mean burst length fixed at 5 deliveries), cleared
    at [until] — the Gilbert–Elliott analogue of {!loss_ramp}.
    @raise Invalid_argument unless [0 < peak < 1]. *)

val send_block_window :
  node:int ->
  net:int ->
  from_:Totem_engine.Vtime.t ->
  until:Totem_engine.Vtime.t ->
  step list
(** Asymmetric fault: the node can hear but not speak on [net] for the
    window. *)

val recv_block_window :
  node:int ->
  net:int ->
  from_:Totem_engine.Vtime.t ->
  until:Totem_engine.Vtime.t ->
  step list

val kill_window :
  node:int ->
  at:Totem_engine.Vtime.t ->
  ?recover_at:Totem_engine.Vtime.t ->
  unit ->
  step list
(** Processor kill (timed against the token by choosing [at] relative to
    the measured rotation period); note this leaves the paper's masked
    fault model, so {!tolerated} becomes false. *)

val random :
  seed:int ->
  ?duration:Totem_engine.Vtime.t ->
  ?quiesce:Totem_engine.Vtime.t ->
  ?wire:bool ->
  ?corrupt:bool ->
  ?gray:bool ->
  unit ->
  t
(** The fuzz generator: random cluster shape (2–5 nodes, 2–3 nets,
    random style), random burst traffic, and a random fault timeline
    drawn from the full op set that {e never touches the last network} —
    the paper's operating assumption that one network survives. Equal
    seeds give equal campaigns. [wire] (default false) marks the
    campaign byte-wire; [corrupt] (default false) widens the op draw
    with corruption windows and ramps; [gray] (default false) widens it
    with gray windows, Gilbert–Elliott ramps and directional loss, and
    turns reinstatement on for the campaign. With all off, the
    generator is bit-for-bit the historical one, so existing seeds keep
    their campaigns. *)

(** {1 Static analysis} *)

val tolerated : t -> bool
(** True when the campaign stays inside the fault hypothesis the paper
    masks: no [Crash] steps, and after every step at least one network
    carries no fault at all (not even sporadic loss). The invariant
    monitor arms the masking invariants (agreement, no membership
    change, liveness) only for tolerated campaigns. *)

val touched_nets : ?sporadic_loss_max:float -> t -> bool array
(** Per-network: does any step inject a hard fault on it, or loss {e or
    corruption} above [sporadic_loss_max] (default 0)? Untouched
    networks are "virgin": requirement A5/P5 says they must never be
    declared faulty. *)

val corrupt_nets : t -> bool array
(** Per-network: does any step set a positive corruption probability on
    it? The corruption-confinement invariant requires every corruption
    artifact (in-flight mutation, CRC or decode discard) to land on one
    of these networks. *)

val has_crashes : t -> bool

val submitted_messages : t -> int option
(** Total burst submissions; [None] for saturation traffic. *)

val to_action : op -> Totem_cluster.Scenario.action
(** The executable form; the runner schedules these through
    {!Totem_cluster.Scenario.apply}. *)

val pp_op : Format.formatter -> op -> unit

(** {1 Serialization} *)

val style_to_string : Totem_rrp.Style.t -> string

val style_of_string : string -> (Totem_rrp.Style.t, string) result

val to_json : t -> Chaos_json.t

val of_json : Chaos_json.t -> string -> t
(** [of_json v where] decodes; [where] contextualizes errors.
    @raise Chaos_json.Parse_error on malformed input. *)
