(** Causal message tracing over the telemetry stream.

    Every client message gets a trace id at origination — sim-side
    metadata derived statelessly from [(origin, app_seq)], the two
    message fields that survive the wire codec round trip, so the id
    needs no wire-format change and is identical on every node and for
    every [sim_domains] count. A [Causal.t] is a read-only
    {!Telemetry.subscribe} observer that collects the causal event
    subset (originate / flow-defer / ordered / per-network packet hops /
    retransmit / deliver, plus wire rejects) and reconstructs
    per-message span trees from it.

    Reconstruction joins [Packet_send]/[Packet_recv] (keyed by
    (ring, seq)) and [Rtr_serve] (keyed by seq alone — ring-ambiguous
    across membership changes, an accepted approximation) back to trace
    ids via the [Msg_ordered] events that link a tid to its assigned
    ring sequence. Corrupted frames cannot be attributed to a message
    (their payload never decoded); they are reported separately as
    {!reject}s.

    Like every telemetry consumer this module upholds the two
    OBSERVABILITY.md invariants: emission sites pay one branch when
    telemetry is inactive, and observation never changes the
    simulation. *)

(** {1 Trace ids} *)

val tid_of : origin:int -> app_seq:int -> int
(** Pack [(origin, app_seq)] into one trace id ([origin lsl 40 lor
    app_seq]).
    @raise Invalid_argument on negative or oversized components. *)

val tid_origin : int -> int
val tid_app_seq : int -> int

(** {1 Collection} *)

type t
(** A causal trace under collection/reconstruction. *)

val create : unit -> t

val observe : t -> Vtime.t -> Telemetry.event -> unit
(** Feed one event; suitable as a {!Telemetry.subscribe} callback.
    Irrelevant event types are ignored without allocation. *)

val attach : Telemetry.t -> t * Telemetry.subscription
(** [attach tel] subscribes a fresh collector to [tel]; unsubscribe
    with {!Telemetry.unsubscribe} when done. *)

val steps_observed : t -> int
(** Causal steps collected so far (cheap; no reconstruction). *)

(** {1 Reconstruction} *)

type hop = {
  hop_at : Vtime.t;
  hop_node : int;
  hop_net : int;
  hop_dir : [ `Send | `Recv ];
  hop_sender : int;
}

type record = {
  r_tid : int;
  r_origin : int;
  r_app_seq : int;
  r_bytes : int;
  r_safe : bool;
  r_originated : Vtime.t option;
      (** [None]: tracing started after origination *)
  r_defers : Vtime.t list;  (** flow-control deferrals, oldest first *)
  r_ordered : (Vtime.t * int * int * int * int) list;
      (** (at, ring, seq, frag, frags), oldest first *)
  r_hops : hop list;  (** per-network packet sends/recvs, oldest first *)
  r_retransmits : (Vtime.t * int) list;  (** (at, serving node) *)
  r_deliveries : (Vtime.t * int) list;  (** (at, node), oldest first *)
}

type reject = {
  rej_at : Vtime.t;
  rej_node : int;
  rej_net : int;
  rej_src : int;
  rej_crc : bool;  (** true: CRC reject; false: decode/validate reject *)
}

val records : t -> record list
(** Per-message records, sorted by trace id — a total order on
    (origin, app_seq), so output is deterministic for any emission
    interleaving the canonical drain produced. *)

val rejects : t -> reject list
(** Wire-level rejects in stream order (unattributable to a tid). *)

(** {1 Latency records} *)

type latency = {
  l_tid : int;
  l_node : int;  (** delivering node *)
  l_sent : Vtime.t;  (** origination time *)
  l_delivered : Vtime.t;
}

val latencies : t -> latency list
(** One compact record per (message, delivering node), restricted to
    messages whose origination was observed. Feeds
    [Metrics.probe_of_causal]. *)

(** {1 Exporters} *)

val chrome_json : t -> string
(** The whole trace as Chrome [trace_event] JSON (catapult /
    [chrome://tracing] / Perfetto): one nestable async flow per message
    keyed by trace id — ["b"] at origination, ["n"] instants for
    ordering, deferral, packet hops and retransmissions, an ["X"]
    delivery span per destination node, ["e"] at final delivery — and
    ["i"] instants for unattributable wire rejects. Timestamps are
    microseconds. *)
