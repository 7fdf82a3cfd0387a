(** A network interface: one node's attachment point to one network.

    Models the receive path the paper's testbed had: frames arriving
    from the wire land in a bounded socket buffer (64 Kbytes under Linux
    2.2, Sec. 8) and are drained serially by the node's CPU. When the
    buffer is full, arriving frames are dropped — the omission faults the
    Totem retransmission machinery exists to repair. *)

type t

val create :
  Totem_engine.Sim.t ->
  node:Addr.node_id ->
  net:Addr.net_id ->
  ?buffer_bytes:int ->
  unit ->
  t
(** Default [buffer_bytes] is 65536. *)

val node : t -> Addr.node_id

val net : t -> Addr.net_id

val sim : t -> Totem_engine.Sim.t
(** The simulator this NIC schedules on — under a cluster the owning
    node's partition, so the network layer can target delivery events
    at the receiver's own event queue. *)

val set_telemetry : t -> Totem_engine.Telemetry.t -> unit
(** Emit [Buffer_drop] events for buffer-full drops. *)

val set_receiver :
  t ->
  ?cpu:Totem_engine.Cpu.t ->
  ?recv_cost:(Frame.t -> Totem_engine.Vtime.t) ->
  (Frame.t -> unit) ->
  unit
(** Installs the upper-layer handler. When [cpu] is given, each arrival
    occupies the socket buffer until the CPU has spent [recv_cost frame]
    processing it, and the handler runs at that completion instant;
    otherwise the handler runs at the arrival instant. *)

val arrive : t -> Frame.t -> unit
(** Called by the network at the frame's arrival time. *)

val deliver : t -> Frame.t -> unit
(** [arrive] plus the per-NIC delivered count — the thunk the network
    schedules at arrival time. Kept per-NIC so the counter is only ever
    written by the receiving node's partition. *)

val frames_delivered : t -> int
(** Deliveries that fired at this NIC, before buffer admission. *)

val last_arrival : t -> Totem_engine.Vtime.t
(** Most recent scheduled arrival; used by the network to keep per-NIC
    FIFO ordering (the paper's assumption that UDP over one Ethernet
    preserves per-recipient order, Sec. 5). *)

val note_arrival : t -> Totem_engine.Vtime.t -> unit

val frames_received : t -> int

val frames_dropped_buffer : t -> int
