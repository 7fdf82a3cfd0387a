(** The redundant-network fabric: N independent LANs connecting M nodes.

    This is the substrate the Totem RRP coordinates. Every node owns one
    NIC per network; networks share nothing (separate media, separate
    fault state), which is exactly the redundancy assumption the paper
    makes about its dual-Ethernet testbed. *)

type t

val create :
  Totem_engine.Sim.t ->
  parts:Totem_engine.Sim.t array ->
  num_nets:int ->
  ?config:Network.config ->
  ?configs:Network.config array ->
  ?telemetry:Totem_engine.Telemetry.t ->
  ?node_telemetry:Totem_engine.Telemetry.t array ->
  unit ->
  t
(** [create sim ~parts ~num_nets ()] connects [Array.length parts]
    nodes: [sim] is the coordinator simulator the networks run on, and
    [parts.(node)] is node's partition simulator (NICs created by
    {!attach_node} schedule arrivals there).

    [configs], when given, sets per-network parameters (length must be
    [num_nets]); otherwise every network uses [config] (default
    {!Network.default_config}). [telemetry], when given, is propagated
    to every network so the net layer emits structured events (frame
    loss/block, fault-state changes); NICs report buffer drops to
    [node_telemetry.(node)] when given, else to [telemetry].
    @raise Invalid_argument on an empty fabric or a length mismatch. *)

val num_nodes : t -> int

val num_nets : t -> int

val network : t -> Addr.net_id -> Network.t

val fault : t -> Addr.net_id -> Fault.t

val nic : t -> node:Addr.node_id -> net:Addr.net_id -> Nic.t

val attach_node :
  t ->
  node:Addr.node_id ->
  ?cpu:Totem_engine.Cpu.t ->
  ?recv_cost:(Frame.t -> Totem_engine.Vtime.t) ->
  ?buffer_bytes:int ->
  (net:Addr.net_id -> Frame.t -> unit) ->
  unit
(** Creates the node's NICs on all networks and installs the handler,
    which is told which network each frame arrived on — the information
    the RRP layer dispatches on. *)

val set_wire_encoder : t -> ?memoize:bool -> (Frame.t -> Frame.t) -> unit
(** Installs a sending-NIC serialization hook applied to every frame
    before it reaches a network: byte-wire mode passes the codec's
    frame encoder (payload -> {!Frame.Bytes} image with CRC-32 trailer)
    here. The hook must preserve [src] and [payload_bytes] so fault and
    timing semantics are unchanged.

    With [memoize] (the default), the fabric keeps a one-slot memo of
    the last (input, encoded) pair keyed on the {e physical} identity
    of the input frame: active replication's back-to-back broadcast of
    one frame value across all N networks then runs the encoder once,
    not N times. The hook must therefore be a pure function of the
    frame value — pass [~memoize:false] for an encoder with
    per-invocation effects. *)

val broadcast : t -> net:Addr.net_id -> Frame.t -> unit
(** Buffers the frame in the sender's outbox; it reaches the network at
    the next {!flush_outboxes}. *)

val unicast : t -> net:Addr.net_id -> dst:Addr.node_id -> Frame.t -> unit

(** {1 Parallel simulator core}

    Under the exchange layer ({!Totem_engine.Exchange}) the fabric is
    the cross-partition delivery path: NICs schedule arrivals on their
    node's partition, sends buffer in per-node outboxes during windows,
    and the barrier flush replays them through the medium in canonical
    (time, source node, seq) order — making medium occupancy and the
    per-network RNG streams independent of the domain count. *)

val min_latency : t -> Totem_engine.Vtime.t
(** Minimum {!Network.min_latency} across all networks: the largest
    safe conservative lookahead for the exchange. *)

val outbox_next : t -> Totem_engine.Vtime.t
(** Earliest timestamp among buffered sends; [Vtime.never] when none.
    Allocation-free — the exchange polls this once per window and once
    per event inside an adaptive solo window. *)

val flush_outboxes : t -> unit
(** Barrier hook: replay all buffered sends in canonical order,
    setting the coordinator clock to each send's own timestamp
    (restored by the exchange afterwards). *)
