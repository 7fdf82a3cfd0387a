(** The Totem token.

    The token circulates on the logical ring and carries: the ring
    identifier, the sequence number of the last message broadcast on the
    ring ([seq]), a rotation counter incremented by the ring leader every
    full rotation, the all-received-up-to value [aru] with its setter
    (stability and garbage collection), the flow-control count [fcc],
    and the list of outstanding retransmission requests [rtr].

    The paper's footnote 1 explains that on an idle ring the sequence
    number alone cannot distinguish a fresh token from a retransmitted
    copy, which is why the rotation counter exists. This implementation
    carries the finer-grained [hops] counter (incremented on every
    forward) and derives "is this token new?" from it — the same
    observable behaviour, exact at every hop rather than once per
    rotation. [rotation] is still maintained for monitoring. *)

type t = {
  ring_id : int;
  seq : int;
  rotation : int;  (** completed rotations, maintained by the leader *)
  hops : int;  (** total forwards since the ring formed *)
  aru : int;
  aru_setter : Totem_net.Addr.node_id;
  fcc : int;  (** messages broadcast during the current rotation window *)
  rtr : int list;  (** requested sequence numbers, sorted ascending *)
  ring : Totem_net.Addr.node_id array;
      (** ring membership in token-passing order; carried so that a
          newly formed ring is installed by the token itself (this
          simulation's stand-in for Totem's commit token) *)
}

val initial : ring:Totem_net.Addr.node_id array -> ring_id:int -> t
(** A fresh token for a new ring: [seq = 0], [rotation = 0], [hops = 0],
    empty rtr. *)

val newer_than : t -> than:t -> bool
(** Lexicographic on [(ring_id, hops)] — the "is this a new token, not a
    retransmitted copy?" test used by both the SRP duplicate filter and
    the RRP active-replication algorithm (Fig. 2's [t.seq >
    lastToken.seq] test plus its footnote-1 refinement). *)

val same_instance : t -> t -> bool
(** Same [(ring_id, hops)] — copies of one logical token, as sent over
    different networks or retransmitted. *)

val payload_bytes : Const.t -> t -> int
(** Wire size of this token. *)
