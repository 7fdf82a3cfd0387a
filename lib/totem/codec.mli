(** Binary wire codec for every Totem protocol unit.

    The simulation passes protocol values by reference for speed, but a
    deployable implementation needs a byte format — and the throughput
    model needs its declared sizes to be honest. This codec provides
    both: {!encode_packet} etc. produce self-describing byte strings,
    and the test suite checks that (a) decoding inverts encoding
    exactly, and (b) the encoded size never exceeds the size the
    simulation charges to the wire (the sizes in {!Const} and
    {!Wire}).

    Format: little-endian fixed-width integers, length-prefixed
    sequences, one tag byte per unit kind. Application payloads are
    opaque to the protocol, so data elements carry their byte count and
    a zero-filled body (a real application would register its own
    payload codec via {!set_data_codec}). *)

type error =
  | Truncated
  | Bad_tag of int
  | Trailing_bytes of int
  | Bad_count of { what : string; count : int; limit : int }
      (** a count prefix exceeds how many of its elements a maximum
          payload could carry — rejected {e before} any allocation *)
  | Bad_field of { what : string; value : int; min : int; max : int }
      (** a parsed field fails the {!validate} semantic bounds *)

val pp_error : Format.formatter -> error -> unit

(** Unit kinds, as discriminated by the tag byte. *)
type decoded =
  | Packet of Wire.packet
  | Token of Token.t
  | Join of Wire.join
  | Probe of Wire.probe
  | Commit of Wire.commit

val encode_packet : Wire.packet -> string

val encode_token : Token.t -> string

val encode_join : Wire.join -> string

val encode_probe : Wire.probe -> string

val encode_commit : Wire.commit -> string

val decode : ?pos:int -> ?len:int -> string -> (decoded, error) result
(** Decodes any encoded unit; rejects trailing garbage. Total on
    arbitrary bytes: every length/count prefix is bounded against the
    1424-byte {!Totem_net.Frame.max_payload_bytes} budget and checked
    against the remaining input before anything is allocated, so
    hostile input yields [Error], never an exception or a large
    allocation.

    [pos] (default 0) and [len] (default to the end of the string)
    restrict the decode to a substring without copying it out — the
    frame pipeline decodes an image in place with the CRC trailer
    excluded, no [String.sub].
    @raise Invalid_argument if [pos]/[len] do not describe a valid
    range of [s]. *)

val validate : ?max_node:int -> decoded -> (unit, error) result
(** Semantic bounds a parse alone cannot establish, for input that may
    be CRC-colliding garbage: node-like ids (senders, origins, ring and
    set members, the aru setter) are bounded by [max_node] (default
    65535; clusters pass [num_nodes - 1]), fragment indices must lie
    within their counts, unfragmented message and fragment sizes within
    the payload budget, token rings must be non-empty and the commit
    round 1 or 2. Violations come back as [Bad_field]/[Bad_count]. *)

val shadow_check : Totem_net.Frame.payload -> (unit, string) result
(** Encodes the payload and decodes the bytes back, reporting any
    mismatch — a live validation harness for the codec: run it on every
    frame of a simulated cluster and the byte format is exercised by
    real protocol traffic, membership and recovery included. *)

val set_data_codec :
  encode:(Message.data -> string) -> decode:(string -> Message.data) -> unit
(** Installs an application payload codec. The default encodes every
    payload as its declared size in zero bytes and decodes to
    {!Message.Blob}. *)

(** {1 Byte-faithful frame layer}

    The wire mode's sending and receiving NIC ends. A frame image is
    the encoded unit followed by a 4-byte little-endian CRC-32 trailer
    ({!Totem_net.Crc32}), carried as {!Totem_net.Frame.Bytes}. *)

type frame_error =
  | Crc_mismatch  (** the trailer does not match the body — discard *)
  | Malformed of error
      (** the checksum held (collision or spontaneously consistent
          garbage) but total decoding or {!validate} rejected it *)

val pp_frame_error : Format.formatter -> frame_error -> unit

(** {2 Encode-once / decode-once caches}

    Active replication serializes one logical frame once per network
    and every receiver of a broadcast deserializes the same byte string
    once per NIC — N x M copies of bitwise-identical work (the paper's
    Sec. 5 fan-out). These caches collapse that to once per logical
    frame by keying on {e physical} identity: the RRP styles hand the
    same packet/token value to every network, and every clean receiver
    shares the sender's byte string. {!Totem_net.Network.corrupt_frame}
    always substitutes a freshly allocated string, so a damaged copy
    can never alias a cached decode — it misses and runs the full
    CRC -> decode -> validate discard pipeline, which is why
    identity-keyed caching cannot mask corruption.

    Caches are explicit per-cluster values (created by
    {!Totem_cluster.Cluster.create}), never module globals: bench
    sweeps run clusters on parallel domains. *)

type encode_cache
(** Memo of encoded frame images keyed on the identity of the inner
    protocol value — a small ring for packets (SRP retransmissions
    re-send the stored packet value), one slot per membership/token
    unit kind. *)

val encode_cache : ?packet_slots:int -> unit -> encode_cache
(** A fresh cache; [packet_slots] (default 8, minimum 1) sizes the
    packet ring. *)

val encode_cache_stats : encode_cache -> int * int
(** [(hits, misses)] so far — a hit reused an encoded image. *)

type decode_cache
(** FIFO ring of decoded frame payloads keyed on the physical identity
    of the byte string. Only images that passed the full discard
    pipeline are stored: a rejected string is re-verified (and
    re-rejected) on every copy, so cached and uncached runs emit
    identical [Frame_crc_reject]/[Frame_decode_reject] telemetry. *)

val decode_cache : ?slots:int -> unit -> decode_cache
(** A fresh cache; [slots] (default 64, minimum 1) bounds the frames
    remembered — sized for the broadcast copies in flight across one
    cluster. *)

val decode_cache_stats : decode_cache -> int * int
(** [(hits, misses)] so far — a hit skipped CRC + decode + validate. *)

val encode_frame : ?cache:encode_cache -> Totem_net.Frame.t -> Totem_net.Frame.t
(** The sending-NIC serializer (installed via
    {!Totem_net.Fabric.set_wire_encoder} in wire mode): replaces the
    payload with its checksummed byte image. [src] and [payload_bytes]
    are preserved — the CRC models the Ethernet FCS, which the frame
    model already charges inside
    {!Totem_net.Frame.header_overhead_bytes}, so timing is unchanged.
    Frames carrying foreign payload kinds pass through untouched.

    With [cache], a frame wrapping a protocol value that was just
    encoded reuses the cached image (encode-once fan-out); without it,
    every call serializes afresh. *)

val decode_frame :
  ?cache:decode_cache ->
  ?shared:decode_cache ->
  ?max_node:int ->
  Totem_net.Frame.t ->
  (Totem_net.Frame.t, frame_error) result
(** The receiving-NIC discard pipeline for {!Totem_net.Frame.Bytes}
    payloads: CRC-32 verification, then total decode, then {!validate}
    (with [max_node] as there). [Ok] rebuilds the frame with the
    decoded protocol payload; [Error] means the frame must be dropped,
    which the RRP observes exactly as loss. Frames with non-byte
    payloads pass through unchanged.

    With [cache], a byte string whose decode already succeeded is
    recognized by physical identity and skips the pipeline
    (decode-once delivery); rejects are never cached. [shared] is
    consulted first and only read, never written or counted: a cache
    another party fills with {!prime}, so it may be read from several
    domains as long as it is written only while none of them run. Hits
    and misses in either count against [cache]. *)

val prime : decode_cache -> ?max_node:int -> Totem_net.Frame.t -> unit
(** [prime cache frame] caches the decoded image of a frame
    {!encode_frame} just produced, so receivers find it by identity.
    The CRC is not re-verified — the image is fresh from the encoder —
    but decode and {!validate} run as in {!decode_frame}, and a frame
    they reject is not cached. *)
