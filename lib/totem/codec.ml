type error =
  | Truncated
  | Bad_tag of int
  | Trailing_bytes of int
  | Bad_count of { what : string; count : int; limit : int }
  | Bad_field of { what : string; value : int; min : int; max : int }

let pp_error ppf = function
  | Truncated -> Format.pp_print_string ppf "truncated input"
  | Bad_tag t -> Format.fprintf ppf "bad tag byte 0x%02x" t
  | Trailing_bytes n -> Format.fprintf ppf "%d trailing bytes" n
  | Bad_count { what; count; limit } ->
    Format.fprintf ppf "%s count %d exceeds frame budget (max %d)" what count
      limit
  | Bad_field { what; value; min; max } ->
    Format.fprintf ppf "%s %d out of range [%d..%d]" what value min max

type decoded =
  | Packet of Wire.packet
  | Token of Token.t
  | Join of Wire.join
  | Probe of Wire.probe
  | Commit of Wire.commit

(* Application payload codec; the default emits the declared size in
   zero bytes and decodes to Blob. The defaults are named so the decoder
   can recognize them (by physical equality) and skip materializing
   bodies whose bytes would be ignored anyway. *)
let default_data_encode (_ : Message.data) = ""
let default_data_decode (_ : string) = Message.Blob
let data_encode = ref default_data_encode
let data_decode = ref default_data_decode

let set_data_codec ~encode ~decode =
  data_encode := encode;
  data_decode := decode

(* --- encode primitives (little-endian) ------------------------------
   Single-pass encoding: every encoder computes its exact byte size
   first, then writes into one preallocated zero-filled Bytes — no
   Buffer growth, no Buffer.contents copy, and a zero-filled message
   body costs nothing beyond the allocation itself. *)

type writer = { wbuf : Bytes.t; mutable wpos : int }

let w_u8 w v =
  Bytes.set w.wbuf w.wpos (Char.chr (v land 0xff));
  w.wpos <- w.wpos + 1

let w_u16 w v =
  w_u8 w v;
  w_u8 w (v lsr 8)

let w_u24 w v =
  w_u16 w v;
  w_u8 w (v lsr 16)

let w_u32 w v =
  w_u16 w v;
  w_u16 w (v lsr 16)

let w_string w s =
  let n = String.length s in
  Bytes.blit_string s 0 w.wbuf w.wpos n;
  w.wpos <- w.wpos + n

(* The buffer is zero-filled, so a zero body is a skip. *)
let w_zeros w n = w.wpos <- w.wpos + n

(* [extra] reserves trailing room (the CRC trailer) beyond the encoded
   unit; the size check still binds the unit itself. *)
let encoded ?(extra = 0) size write =
  let w = { wbuf = Bytes.make (size + extra) '\000'; wpos = 0 } in
  write w;
  if w.wpos <> size then
    invalid_arg
      (Printf.sprintf "Codec: encoder wrote %d bytes for a size of %d" w.wpos
         size);
  w.wbuf

(* --- decode primitives ---------------------------------------------- *)

exception Decode_error of error

type reader = { src : string; mutable pos : int; limit : int }

let need r n = if r.pos + n > r.limit then raise (Decode_error Truncated)

(* Byte reads are unsafe_get AFTER the explicit [need] bound check —
   one check per field, not one per byte. *)
let[@inline] byte r i = Char.code (String.unsafe_get r.src i)

let get_u8 r =
  need r 1;
  let v = byte r r.pos in
  r.pos <- r.pos + 1;
  v

let get_u16 r =
  need r 2;
  let p = r.pos in
  let v = byte r p lor (byte r (p + 1) lsl 8) in
  r.pos <- p + 2;
  v

let get_u24 r =
  need r 3;
  let p = r.pos in
  let v = byte r p lor (byte r (p + 1) lsl 8) lor (byte r (p + 2) lsl 16) in
  r.pos <- p + 3;
  v

let get_u32 r =
  need r 4;
  let p = r.pos in
  let v =
    byte r p
    lor (byte r (p + 1) lsl 8)
    lor (byte r (p + 2) lsl 16)
    lor (byte r (p + 3) lsl 24)
  in
  r.pos <- p + 4;
  v

let get_bytes r n =
  need r n;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let skip r n =
  need r n;
  r.pos <- r.pos + n

(* Hostile-input guard: a count prefix may only be trusted after two
   checks — it must not exceed how many of its elements a maximum
   payload could carry, and the remaining input must actually hold
   [count * elem_bytes] bytes. Both run {e before} any allocation, so a
   corrupted (or CRC-colliding) prefix costs an [Error], never a large
   [List.init]/[Array.init]. *)
let max_payload = Totem_net.Frame.max_payload_bytes

let bounded_count r ~what ~elem_bytes count =
  let limit = max_payload / elem_bytes in
  if count > limit then raise (Decode_error (Bad_count { what; count; limit }));
  need r (count * elem_bytes);
  count

(* --- elements -------------------------------------------------------
   Whole message:  flags(1) origin(2) app_seq(4) size(3) body_len(2)
                   = 12 bytes, matching Const.element_header_bytes.
   Fragment:       the same 12 plus index(2) count(2) — 4 bytes over the
                   model, documented in codec.mli. *)

let flag_safe = 0x01
let flag_frag = 0x02

(* The element body is resolved once — [Some bytes] for an
   application-encoded payload, [None] for a zero-filled body of the
   given length — and shared by the size computation and the writer, so
   a custom [data_encode] runs exactly once per element. *)
let element_body (e : Wire.element) =
  match e.fragment with
  | Some f -> (None, f.Wire.bytes)
  | None ->
    if !data_encode == default_data_encode then (None, e.message.Message.size)
    else
      let b = !data_encode e.message.Message.data in
      if b = "" then (None, e.message.Message.size)
      else (Some b, String.length b)

let element_size (e : Wire.element) blen =
  12 + (match e.fragment with Some _ -> 4 | None -> 0) + blen

let write_element w (e : Wire.element) (body, blen) =
  let m = e.message in
  let flags =
    (if m.Message.safe then flag_safe else 0)
    lor match e.fragment with Some _ -> flag_frag | None -> 0
  in
  w_u8 w flags;
  w_u16 w m.origin;
  w_u32 w m.app_seq;
  w_u24 w m.size;
  w_u16 w blen;
  (match e.fragment with
  | None -> ()
  | Some f ->
    w_u16 w f.index;
    w_u16 w f.count);
  match body with Some b -> w_string w b | None -> w_zeros w blen

let decode_element r : Wire.element =
  let flags = get_u8 r in
  let origin = get_u16 r in
  let app_seq = get_u32 r in
  let size = get_u24 r in
  let body_len = get_u16 r in
  let fragment =
    if flags land flag_frag <> 0 then begin
      let index = get_u16 r in
      let count = get_u16 r in
      Some { Wire.index; count; bytes = body_len }
    end
    else None
  in
  let data =
    (* Fragment bodies are reassembled by byte count, never inspected,
       and the default application codec ignores its input — in both
       cases skip the body instead of copying it out. *)
    if fragment <> None || !data_decode == default_data_decode then begin
      skip r body_len;
      Message.Blob
    end
    else !data_decode (get_bytes r body_len)
  in
  let message =
    Message.make ~origin ~app_seq ~size ~safe:(flags land flag_safe <> 0) ~data ()
  in
  { Wire.message; fragment }

(* --- packet --------------------------------------------------------- *)

let tag_packet = 0x50 (* 'P' *)
let tag_token = 0x54 (* 'T' *)
let tag_join = 0x4a (* 'J' *)
let tag_probe = 0x52 (* 'R' *)
let tag_commit = 0x43 (* 'C' *)

(* tag(1) ring_id(4) seq(4) sender(2) count(1) *)
let packet_plan (p : Wire.packet) =
  let bodies = List.map element_body p.elements in
  let size =
    List.fold_left2
      (fun acc e (_, blen) -> acc + element_size e blen)
      12 p.elements bodies
  in
  (size, bodies)

let write_packet w (p : Wire.packet) bodies =
  w_u8 w tag_packet;
  w_u32 w p.ring_id;
  w_u32 w p.seq;
  w_u16 w p.sender;
  w_u8 w (List.length p.elements);
  List.iter2 (write_element w) p.elements bodies

let encode_packet (p : Wire.packet) =
  let size, bodies = packet_plan p in
  Bytes.unsafe_to_string (encoded size (fun w -> write_packet w p bodies))

let decode_packet r : Wire.packet =
  let ring_id = get_u32 r in
  let seq = get_u32 r in
  let sender = get_u16 r in
  (* Each element starts with a 12-byte header (Const.element_header_bytes). *)
  let count = bounded_count r ~what:"element" ~elem_bytes:12 (get_u8 r) in
  let elements = List.init count (fun _ -> decode_element r) in
  { Wire.ring_id; seq; sender; elements }

(* --- token ----------------------------------------------------------- *)

(* tag(1) ring_id/seq/rotation/hops/aru(4 each) aru_setter(2) fcc(2)
   rtr count(2) ring count(1) *)
let token_size (t : Token.t) =
  28 + (4 * List.length t.rtr) + (2 * Array.length t.ring)

let write_token w (t : Token.t) =
  w_u8 w tag_token;
  w_u32 w t.ring_id;
  w_u32 w t.seq;
  w_u32 w t.rotation;
  w_u32 w t.hops;
  w_u32 w t.aru;
  w_u16 w t.aru_setter;
  w_u16 w t.fcc;
  w_u16 w (List.length t.rtr);
  w_u8 w (Array.length t.ring);
  List.iter (w_u32 w) t.rtr;
  Array.iter (w_u16 w) t.ring

let encode_token (t : Token.t) =
  Bytes.unsafe_to_string (encoded (token_size t) (fun w -> write_token w t))

let decode_token r : Token.t =
  let ring_id = get_u32 r in
  let seq = get_u32 r in
  let rotation = get_u32 r in
  let hops = get_u32 r in
  let aru = get_u32 r in
  let aru_setter = get_u16 r in
  let fcc = get_u16 r in
  let rtr_count = bounded_count r ~what:"rtr" ~elem_bytes:4 (get_u16 r) in
  let ring_count =
    bounded_count r ~what:"ring member" ~elem_bytes:2 (get_u8 r)
  in
  let rtr = List.init rtr_count (fun _ -> get_u32 r) in
  let ring = Array.init ring_count (fun _ -> 0) in
  for i = 0 to ring_count - 1 do
    ring.(i) <- get_u16 r
  done;
  { Token.ring_id; seq; rotation; hops; aru; aru_setter; fcc; rtr; ring }

(* --- join and probe --------------------------------------------------- *)

(* tag(1) sender(2) max_ring_id(4) proc count(2) fail count(2) *)
let join_size (j : Wire.join) =
  11 + (2 * (List.length j.proc_set + List.length j.fail_set))

let write_join w (j : Wire.join) =
  w_u8 w tag_join;
  w_u16 w j.sender;
  w_u32 w j.max_ring_id;
  w_u16 w (List.length j.proc_set);
  w_u16 w (List.length j.fail_set);
  List.iter (w_u16 w) j.proc_set;
  List.iter (w_u16 w) j.fail_set

let encode_join (j : Wire.join) =
  Bytes.unsafe_to_string (encoded (join_size j) (fun w -> write_join w j))

let decode_join r : Wire.join =
  let sender = get_u16 r in
  let max_ring_id = get_u32 r in
  let np = bounded_count r ~what:"proc set" ~elem_bytes:2 (get_u16 r) in
  let nf = bounded_count r ~what:"fail set" ~elem_bytes:2 (get_u16 r) in
  let proc_set = List.init np (fun _ -> get_u16 r) in
  let fail_set = List.init nf (fun _ -> get_u16 r) in
  { Wire.sender; proc_set; fail_set; max_ring_id }

(* tag(1) sender(2) ring_id(4) *)
let probe_size = 7

let write_probe w (p : Wire.probe) =
  w_u8 w tag_probe;
  w_u16 w p.probe_sender;
  w_u32 w p.probe_ring_id

let encode_probe (p : Wire.probe) =
  Bytes.unsafe_to_string (encoded probe_size (fun w -> write_probe w p))

(* tag(1) ring_id(4) round(1) ring count(1) info count(1) *)
let commit_size (cm : Wire.commit) =
  8 + (2 * Array.length cm.cm_ring) + (10 * List.length cm.cm_info)

let write_commit w (cm : Wire.commit) =
  w_u8 w tag_commit;
  w_u32 w cm.cm_ring_id;
  w_u8 w cm.cm_round;
  w_u8 w (Array.length cm.cm_ring);
  w_u8 w (List.length cm.cm_info);
  Array.iter (w_u16 w) cm.cm_ring;
  List.iter
    (fun (i : Wire.member_info) ->
      w_u16 w i.mi_node;
      w_u32 w i.mi_old_ring;
      w_u32 w i.mi_aru)
    cm.cm_info

let encode_commit (cm : Wire.commit) =
  Bytes.unsafe_to_string (encoded (commit_size cm) (fun w -> write_commit w cm))

let decode_commit r : Wire.commit =
  let cm_ring_id = get_u32 r in
  let cm_round = get_u8 r in
  let nring = bounded_count r ~what:"commit ring" ~elem_bytes:2 (get_u8 r) in
  let ninfo =
    bounded_count r ~what:"member info" ~elem_bytes:10 (get_u8 r)
  in
  let cm_ring = Array.init nring (fun _ -> 0) in
  for i = 0 to nring - 1 do
    cm_ring.(i) <- get_u16 r
  done;
  let cm_info =
    List.init ninfo (fun _ ->
        let mi_node = get_u16 r in
        let mi_old_ring = get_u32 r in
        let mi_aru = get_u32 r in
        { Wire.mi_node; mi_old_ring; mi_aru })
  in
  { Wire.cm_ring_id; cm_ring; cm_round; cm_info }

let decode_probe r : Wire.probe =
  let probe_sender = get_u16 r in
  let probe_ring_id = get_u32 r in
  { Wire.probe_sender; probe_ring_id }

(* --- dispatch --------------------------------------------------------- *)

(* [pos]/[len] bound the decode to a substring without copying it out —
   the frame pipeline uses this to exclude the CRC trailer without the
   [String.sub] body copy. *)
let decode ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Codec.decode";
  let r = { src = s; pos; limit = pos + len } in
  try
    let tag = get_u8 r in
    let v =
      if tag = tag_packet then Packet (decode_packet r)
      else if tag = tag_token then Token (decode_token r)
      else if tag = tag_join then Join (decode_join r)
      else if tag = tag_probe then Probe (decode_probe r)
      else if tag = tag_commit then Commit (decode_commit r)
      else raise (Decode_error (Bad_tag tag))
    in
    if r.pos <> r.limit then Error (Trailing_bytes (r.limit - r.pos))
    else Ok v
  with Decode_error e -> Error e

(* Structural equality modulo the application payload closure (encoded
   data decodes to the registered codec's value, which for the default
   codec is Blob regardless of the original). *)
let message_eq (a : Message.t) (b : Message.t) =
  a.origin = b.origin && a.app_seq = b.app_seq && a.size = b.size
  && a.safe = b.safe

let element_eq (a : Wire.element) (b : Wire.element) =
  message_eq a.message b.message && a.fragment = b.fragment

let packet_eq (a : Wire.packet) (b : Wire.packet) =
  a.ring_id = b.ring_id && a.seq = b.seq && a.sender = b.sender
  && List.length a.elements = List.length b.elements
  && List.for_all2 element_eq a.elements b.elements

let shadow_check payload =
  let check name ok = if ok then Ok () else Error (name ^ " round trip mismatch") in
  match payload with
  | Wire.Data p -> (
    match decode (encode_packet p) with
    | Ok (Packet p') -> check "packet" (packet_eq p p')
    | Ok _ -> Error "packet decoded as another kind"
    | Error e -> Error (Format.asprintf "packet: %a" pp_error e))
  | Wire.Tok tok -> (
    match decode (encode_token tok) with
    | Ok (Token t') -> check "token" (tok = t')
    | Ok _ -> Error "token decoded as another kind"
    | Error e -> Error (Format.asprintf "token: %a" pp_error e))
  | Wire.Join j -> (
    match decode (encode_join j) with
    | Ok (Join j') -> check "join" (j = j')
    | Ok _ -> Error "join decoded as another kind"
    | Error e -> Error (Format.asprintf "join: %a" pp_error e))
  | Wire.Probe p -> (
    match decode (encode_probe p) with
    | Ok (Probe p') -> check "probe" (p = p')
    | Ok _ -> Error "probe decoded as another kind"
    | Error e -> Error (Format.asprintf "probe: %a" pp_error e))
  | Wire.Commit cm -> (
    match decode (encode_commit cm) with
    | Ok (Commit cm') -> check "commit" (cm = cm')
    | Ok _ -> Error "commit decoded as another kind"
    | Error e -> Error (Format.asprintf "commit: %a" pp_error e))
  | _ -> Ok ()

(* --- semantic validation ---------------------------------------------
   [decode] only proves the input parses; garbage that survives the
   CRC (a collision) can still parse into a unit whose fields would
   crash the protocol (a node id indexing past the membership arrays,
   a fragment index past its count, an empty token ring feeding a
   [mod 0]). This layer bounds every identifier-like field so such a
   unit is discarded at the NIC instead. *)

let in_range what value ~min ~max =
  if value < min || value > max then
    raise (Decode_error (Bad_field { what; value; min; max }))

let validate ?(max_node = 0xffff) d =
  let node what v = in_range what v ~min:0 ~max:max_node in
  try
    (match d with
    | Packet p ->
      node "packet sender" p.Wire.sender;
      List.iter
        (fun (e : Wire.element) ->
          node "element origin" e.message.origin;
          match e.fragment with
          | None ->
            (* A whole message packed into one frame fits the payload. *)
            in_range "message size" e.message.size ~min:0 ~max:max_payload
          | Some f ->
            in_range "fragment count" f.count ~min:1 ~max:0xffff;
            in_range "fragment index" f.index ~min:0 ~max:(f.count - 1);
            in_range "fragment bytes" f.bytes ~min:0 ~max:max_payload)
        p.elements
    | Token t ->
      node "aru setter" t.aru_setter;
      in_range "token ring size" (Array.length t.ring) ~min:1 ~max:0xff;
      Array.iter (fun n -> node "ring member" n) t.ring
    | Join j ->
      node "join sender" j.sender;
      List.iter (fun n -> node "proc set member" n) j.proc_set;
      List.iter (fun n -> node "fail set member" n) j.fail_set
    | Probe p -> node "probe sender" p.probe_sender
    | Commit cm ->
      in_range "commit round" cm.cm_round ~min:1 ~max:2;
      Array.iter (fun n -> node "commit ring member" n) cm.cm_ring;
      List.iter
        (fun (i : Wire.member_info) -> node "member info node" i.mi_node)
        cm.cm_info);
    Ok ()
  with Decode_error e -> Error e

(* --- byte-faithful frame layer ---------------------------------------
   The wire mode's unit of exchange: [encode_frame] turns a protocol
   payload into its byte image plus a CRC-32 trailer (the model of the
   Ethernet FCS), [decode_frame] is the receiving NIC's discard
   pipeline — checksum, total decode, semantic validation — in the
   order real hardware and a real stack would apply them. *)

type frame_error =
  | Crc_mismatch
  | Malformed of error

let pp_frame_error ppf = function
  | Crc_mismatch -> Format.pp_print_string ppf "CRC-32 mismatch"
  | Malformed e -> pp_error ppf e

let payload_of_decoded = function
  | Packet p -> Wire.Data p
  | Token t -> Wire.Tok t
  | Join j -> Wire.Join j
  | Probe p -> Wire.Probe p
  | Commit cm -> Wire.Commit cm

(* One frame image — unit bytes and CRC trailer — written into a single
   allocation: encode into [size + 4] zero-filled bytes, checksum the
   body in place, write the trailer behind it. *)
let image size write =
  let buf = encoded ~extra:Totem_net.Crc32.trailer_bytes size write in
  Totem_net.Crc32.write_trailer buf ~pos:size
    (Totem_net.Crc32.update_bytes 0 buf ~pos:0 ~len:size);
  Bytes.unsafe_to_string buf

let payload_image = function
  | Wire.Data p ->
    let size, bodies = packet_plan p in
    Some (image size (fun w -> write_packet w p bodies))
  | Wire.Tok t -> Some (image (token_size t) (fun w -> write_token w t))
  | Wire.Join j -> Some (image (join_size j) (fun w -> write_join w j))
  | Wire.Probe p -> Some (image probe_size (fun w -> write_probe w p))
  | Wire.Commit cm -> Some (image (commit_size cm) (fun w -> write_commit w cm))
  | _ -> None

(* --- encode-once / decode-once caches --------------------------------
   Active replication serializes the same logical frame once per
   network, and an M-receiver broadcast deserializes the same byte
   string once per NIC — N x M copies of bitwise-identical work
   (Sec. 5: every message and token travels on all N networks). Both
   caches key on {e physical} identity: the RRP styles pass the same
   packet/token value to every network, and every clean receiver of a
   broadcast shares the sender's byte string. Corruption
   ([Network.corrupt_frame]) always substitutes a freshly allocated
   string, so a damaged copy can never alias a cached decode — it
   misses and takes the full CRC -> decode -> validate discard
   pipeline, preserving corruption-as-loss exactly.

   Caches are per-cluster values, not module globals: bench sweeps run
   clusters on parallel domains, and identity-keyed state must not leak
   across them. *)

type encode_cache = {
  (* Packets get a ring: SRP retransmissions re-send the stored packet
     value some sends later, so a single slot would have been evicted by
     the traffic in between. The membership/token units are
     fanned out back to back — one slot each suffices. *)
  ec_packets : (Wire.packet * Totem_net.Frame.payload) option array;
  mutable ec_packet_next : int;
  mutable ec_token : (Token.t * Totem_net.Frame.payload) option;
  mutable ec_join : (Wire.join * Totem_net.Frame.payload) option;
  mutable ec_probe : (Wire.probe * Totem_net.Frame.payload) option;
  mutable ec_commit : (Wire.commit * Totem_net.Frame.payload) option;
  mutable ec_hits : int;
  mutable ec_misses : int;
}

let encode_cache ?(packet_slots = 8) () =
  if packet_slots < 1 then invalid_arg "Codec.encode_cache";
  {
    ec_packets = Array.make packet_slots None;
    ec_packet_next = 0;
    ec_token = None;
    ec_join = None;
    ec_probe = None;
    ec_commit = None;
    ec_hits = 0;
    ec_misses = 0;
  }

let encode_cache_stats c = (c.ec_hits, c.ec_misses)

let cached_packet c p =
  let slots = c.ec_packets in
  let n = Array.length slots in
  (* Scan newest-first: the fan-out pattern hits the most recent slot. *)
  let rec scan k idx =
    if k >= n then None
    else
      match slots.(idx) with
      | Some (p0, img) when p0 == p -> Some img
      | _ -> scan (k + 1) (if idx = 0 then n - 1 else idx - 1)
  in
  let newest = if c.ec_packet_next = 0 then n - 1 else c.ec_packet_next - 1 in
  match scan 0 newest with
  | Some img ->
    c.ec_hits <- c.ec_hits + 1;
    img
  | None ->
    c.ec_misses <- c.ec_misses + 1;
    let size, bodies = packet_plan p in
    let img =
      Totem_net.Frame.Bytes (image size (fun w -> write_packet w p bodies))
    in
    slots.(c.ec_packet_next) <- Some (p, img);
    c.ec_packet_next <- (c.ec_packet_next + 1) mod n;
    img

let encode_frame ?cache (frame : Totem_net.Frame.t) =
  let with_payload payload = { frame with Totem_net.Frame.payload } in
  match cache with
  | None -> (
    match payload_image frame.payload with
    | None -> frame (* foreign payload: not ours to serialize *)
    | Some img -> with_payload (Totem_net.Frame.Bytes img))
  | Some c -> (
    let hit img =
      c.ec_hits <- c.ec_hits + 1;
      img
    and miss build key store =
      c.ec_misses <- c.ec_misses + 1;
      let img = Totem_net.Frame.Bytes (build ()) in
      store (Some (key, img));
      img
    in
    match frame.payload with
    | Wire.Data p -> with_payload (cached_packet c p)
    | Wire.Tok t ->
      with_payload
        (match c.ec_token with
        | Some (t0, img) when t0 == t -> hit img
        | _ ->
          miss
            (fun () -> image (token_size t) (fun w -> write_token w t))
            t
            (fun s -> c.ec_token <- s))
    | Wire.Join j ->
      with_payload
        (match c.ec_join with
        | Some (j0, img) when j0 == j -> hit img
        | _ ->
          miss
            (fun () -> image (join_size j) (fun w -> write_join w j))
            j
            (fun s -> c.ec_join <- s))
    | Wire.Probe p ->
      with_payload
        (match c.ec_probe with
        | Some (p0, img) when p0 == p -> hit img
        | _ ->
          miss
            (fun () -> image probe_size (fun w -> write_probe w p))
            p
            (fun s -> c.ec_probe <- s))
    | Wire.Commit cm ->
      with_payload
        (match c.ec_commit with
        | Some (cm0, img) when cm0 == cm -> hit img
        | _ ->
          miss
            (fun () -> image (commit_size cm) (fun w -> write_commit w cm))
            cm
            (fun s -> c.ec_commit <- s))
    | _ -> frame)

type decode_cache = {
  (* FIFO ring of decoded frame images, keyed on the identity of the
     byte string ([""] marks an empty slot; real images are never
     empty). Sized for the frames in flight across one cluster: an
     M-receiver broadcast's deliveries interleave with other frames'
     under jitter and per-receiver FIFO, so one slot would thrash. *)
  dc_keys : string array;
  dc_vals : Totem_net.Frame.payload array;
  mutable dc_next : int;
  mutable dc_hits : int;
  mutable dc_misses : int;
}

let decode_cache ?(slots = 64) () =
  if slots < 1 then invalid_arg "Codec.decode_cache";
  {
    dc_keys = Array.make slots "";
    dc_vals = Array.make slots (Totem_net.Frame.Opaque "");
    dc_next = 0;
    dc_hits = 0;
    dc_misses = 0;
  }

let decode_cache_stats c = (c.dc_hits, c.dc_misses)

(* Newest-first identity scan of one cache's ring: [k] slots checked so
   far, [idx] the next slot. *)
let rec cache_scan c s k idx =
  let n = Array.length c.dc_keys in
  if k >= n then None
  else if c.dc_keys.(idx) == s then Some c.dc_vals.(idx)
  else cache_scan c s (k + 1) (if idx = 0 then n - 1 else idx - 1)

let cache_find cache s =
  match cache with
  | Some c ->
    let n = Array.length c.dc_keys in
    cache_scan c s 0 (if c.dc_next = 0 then n - 1 else c.dc_next - 1)
  | None -> None

(* Decode and validate a byte image whose CRC already checked out,
   caching a proven-good result. Only proven-good images are cached: a
   rejected string is re-verified (and re-rejected) on every copy, so
   cached and uncached runs emit identical discard telemetry. *)
let decode_checked ?cache ?max_node s =
  match decode s ~pos:0 ~len:(String.length s - Totem_net.Crc32.trailer_bytes) with
  | Error e -> Error (Malformed e)
  | Ok d -> (
    match validate ?max_node d with
    | Error e -> Error (Malformed e)
    | Ok () ->
      let payload = payload_of_decoded d in
      (match cache with
      | Some c ->
        c.dc_keys.(c.dc_next) <- s;
        c.dc_vals.(c.dc_next) <- payload;
        c.dc_next <- (c.dc_next + 1) mod Array.length c.dc_keys
      | None -> ());
      Ok payload)

let decode_frame ?cache ?shared ?max_node (frame : Totem_net.Frame.t) =
  match frame.Totem_net.Frame.payload with
  | Totem_net.Frame.Bytes s -> (
    let hit =
      if String.length s = 0 then None
      else
        match cache_find shared s with
        | Some _ as hit -> hit
        | None -> cache_find cache s
    in
    match hit with
    | Some payload ->
      (match cache with Some c -> c.dc_hits <- c.dc_hits + 1 | None -> ());
      Ok { frame with Totem_net.Frame.payload }
    | None -> (
      (match cache with Some c -> c.dc_misses <- c.dc_misses + 1 | None -> ());
      if not (Totem_net.Crc32.check s) then Error Crc_mismatch
      else
        match decode_checked ?cache ?max_node s with
        | Ok payload -> Ok { frame with Totem_net.Frame.payload }
        | Error _ as e -> e))
  | _ -> Ok frame

let prime cache ?max_node (frame : Totem_net.Frame.t) =
  match frame.Totem_net.Frame.payload with
  | Totem_net.Frame.Bytes s when String.length s > 0 ->
    ignore (decode_checked ~cache ?max_node s)
  | _ -> ()
