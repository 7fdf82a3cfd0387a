(* Causal message tracing: reconstruct the lifecycle of every client
   message from the telemetry stream and export it as per-message span
   trees (Chrome trace_event JSON) plus compact latency records.

   The trace id is sim-side metadata derived statelessly from the two
   message fields that survive the wire codec round trip — (origin,
   app_seq) — so no wire format change is needed and the id is
   identical on every node and for every domain count. Instrumented
   layers emit Msg_originate / Msg_defer / Msg_ordered / Packet_send /
   Packet_recv / Rtr_serve / Msg_deliver events carrying either the tid
   directly or the (ring, seq) key that Msg_ordered joins back to a
   tid; this module is a read-only Telemetry observer that performs the
   joins. *)

(* --- trace ids ------------------------------------------------------- *)

(* 40 bits of per-origin sequence leaves 22 bits of origin on a 63-bit
   int — both far beyond any simulation here, and the packing is cheap
   enough for a guarded hot path. *)
let app_seq_bits = 40
let app_seq_mask = (1 lsl app_seq_bits) - 1

let tid_of ~origin ~app_seq =
  if origin < 0 || app_seq < 0 || app_seq > app_seq_mask then
    invalid_arg "Causal.tid_of";
  (origin lsl app_seq_bits) lor app_seq

let tid_origin tid = tid lsr app_seq_bits
let tid_app_seq tid = tid land app_seq_mask

(* --- raw observation ------------------------------------------------- *)

(* One reconstruction-relevant step, kept in arrival order. The
   telemetry stream is already in canonical (time, node, seq) order for
   every domain count (see Telemetry.drain), so keeping arrival order
   makes every export deterministic. *)
type step =
  | S_originate of { at : Vtime.t; node : int; tid : int; bytes : int; safe : bool }
  | S_defer of { at : Vtime.t; node : int; tid : int; pending : int }
  | S_ordered of {
      at : Vtime.t;
      node : int;
      tid : int;
      ring_id : int;
      seq : int;
      frag : int;
      frags : int;
    }
  | S_send of { at : Vtime.t; node : int; net : int; ring_id : int; seq : int }
  | S_recv of {
      at : Vtime.t;
      node : int;
      net : int;
      ring_id : int;
      seq : int;
      sender : int;
    }
  | S_rtr of { at : Vtime.t; node : int; seq : int }
  | S_deliver of { at : Vtime.t; node : int; tid : int; bytes : int }
  | S_reject of { at : Vtime.t; node : int; net : int; src : int; crc : bool }

type t = {
  mutable steps : step list; (* newest first *)
  mutable n_steps : int;
}

let create () = { steps = []; n_steps = 0 }

let push t s =
  t.steps <- s :: t.steps;
  t.n_steps <- t.n_steps + 1

let observe t at (ev : Telemetry.event) =
  match ev with
  | Msg_originate { node; tid; bytes; safe } ->
    push t (S_originate { at; node; tid; bytes; safe })
  | Msg_defer { node; tid; pending } -> push t (S_defer { at; node; tid; pending })
  | Msg_ordered { node; tid; ring_id; seq; frag; frags } ->
    push t (S_ordered { at; node; tid; ring_id; seq; frag; frags })
  | Packet_send { node; net; ring_id; seq } ->
    push t (S_send { at; node; net; ring_id; seq })
  | Packet_recv { node; net; ring_id; seq; sender } ->
    push t (S_recv { at; node; net; ring_id; seq; sender })
  | Rtr_serve { node; seq } -> push t (S_rtr { at; node; seq })
  | Msg_deliver { node; tid; bytes; _ } ->
    push t (S_deliver { at; node; tid; bytes })
  | Frame_crc_reject { node; net; src } ->
    push t (S_reject { at; node; net; src; crc = true })
  | Frame_decode_reject { node; net; src; _ } ->
    push t (S_reject { at; node; net; src; crc = false })
  | _ -> ()

let attach tel =
  let t = create () in
  let sub = Telemetry.subscribe tel (observe t) in
  (t, sub)

let steps_observed t = t.n_steps

(* --- reconstruction -------------------------------------------------- *)

type hop = {
  hop_at : Vtime.t;
  hop_node : int;
  hop_net : int;
  hop_dir : [ `Send | `Recv ];
  hop_sender : int; (* sending node; for `Send hops, the node itself *)
}

type record = {
  r_tid : int;
  r_origin : int;
  r_app_seq : int;
  r_bytes : int;
  r_safe : bool;
  r_originated : Vtime.t option; (* None: tracing started after origination *)
  r_defers : Vtime.t list; (* flow-control deferrals, oldest first *)
  r_ordered : (Vtime.t * int * int * int * int) list;
      (* (at, ring, seq, frag, frags), oldest first *)
  r_hops : hop list; (* per-network packet sends/recvs, oldest first *)
  r_retransmits : (Vtime.t * int) list; (* (at, serving node) *)
  r_deliveries : (Vtime.t * int) list; (* (at, node), oldest first *)
}

type reject = {
  rej_at : Vtime.t;
  rej_node : int;
  rej_net : int;
  rej_src : int;
  rej_crc : bool; (* true: CRC reject; false: decode/validate reject *)
}

(* (ring, seq) -> tids carried, built from Msg_ordered: a packet can
   carry fragments of several packed messages, so the join is one to
   many. Rtr_serve carries only seq (the token rtr list is per-ring
   implicitly), so retransmission joins may alias across rings — an
   accepted approximation, noted in OBSERVABILITY.md. *)
let reconstruct t =
  let steps = List.rev t.steps in
  let by_tid : (int, record ref) Hashtbl.t = Hashtbl.create 256 in
  let order : int list ref = ref [] in
  let seq_tids : (int * int, int list) Hashtbl.t = Hashtbl.create 256 in
  let seq_only_tids : (int, int list) Hashtbl.t = Hashtbl.create 256 in
  let rejects = ref [] in
  let get tid =
    match Hashtbl.find_opt by_tid tid with
    | Some r -> r
    | None ->
      let r =
        ref
          {
            r_tid = tid;
            r_origin = tid_origin tid;
            r_app_seq = tid_app_seq tid;
            r_bytes = 0;
            r_safe = false;
            r_originated = None;
            r_defers = [];
            r_ordered = [];
            r_hops = [];
            r_retransmits = [];
            r_deliveries = [];
          }
      in
      Hashtbl.add by_tid tid r;
      order := tid :: !order;
      r
  in
  let join ring_id seq =
    match Hashtbl.find_opt seq_tids (ring_id, seq) with
    | Some tids -> tids
    | None -> []
  in
  List.iter
    (fun s ->
      match s with
      | S_originate { at; tid; bytes; safe; _ } ->
        let r = get tid in
        r :=
          {
            !r with
            r_bytes = bytes;
            r_safe = safe;
            r_originated =
              (match !r.r_originated with None -> Some at | some -> some);
          }
      | S_defer { at; tid; _ } ->
        let r = get tid in
        r := { !r with r_defers = at :: !r.r_defers }
      | S_ordered { at; tid; ring_id; seq; frag; frags; _ } ->
        let r = get tid in
        r := { !r with r_ordered = (at, ring_id, seq, frag, frags) :: !r.r_ordered };
        let key = (ring_id, seq) in
        let cur = Option.value ~default:[] (Hashtbl.find_opt seq_tids key) in
        if not (List.mem tid cur) then begin
          Hashtbl.replace seq_tids key (tid :: cur);
          let cur' = Option.value ~default:[] (Hashtbl.find_opt seq_only_tids seq) in
          Hashtbl.replace seq_only_tids seq (tid :: cur')
        end
      | S_send { at; node; net; ring_id; seq } ->
        List.iter
          (fun tid ->
            let r = get tid in
            r :=
              {
                !r with
                r_hops =
                  { hop_at = at; hop_node = node; hop_net = net;
                    hop_dir = `Send; hop_sender = node }
                  :: !r.r_hops;
              })
          (join ring_id seq)
      | S_recv { at; node; net; ring_id; seq; sender } ->
        List.iter
          (fun tid ->
            let r = get tid in
            r :=
              {
                !r with
                r_hops =
                  { hop_at = at; hop_node = node; hop_net = net;
                    hop_dir = `Recv; hop_sender = sender }
                  :: !r.r_hops;
              })
          (join ring_id seq)
      | S_rtr { at; node; seq } ->
        List.iter
          (fun tid ->
            let r = get tid in
            r := { !r with r_retransmits = (at, node) :: !r.r_retransmits })
          (Option.value ~default:[] (Hashtbl.find_opt seq_only_tids seq))
      | S_deliver { at; node; tid; bytes } ->
        let r = get tid in
        r :=
          {
            !r with
            r_bytes = (if !r.r_bytes = 0 then bytes else !r.r_bytes);
            r_deliveries = (at, node) :: !r.r_deliveries;
          }
      | S_reject { at; node; net; src; crc } ->
        rejects :=
          { rej_at = at; rej_node = node; rej_net = net; rej_src = src;
            rej_crc = crc }
          :: !rejects)
    steps;
  let finish r =
    {
      r with
      r_defers = List.rev r.r_defers;
      r_ordered = List.rev r.r_ordered;
      r_hops = List.rev r.r_hops;
      r_retransmits = List.rev r.r_retransmits;
      r_deliveries = List.rev r.r_deliveries;
    }
  in
  let records = List.rev_map (fun tid -> finish !(Hashtbl.find by_tid tid)) !order in
  (* stable presentation order: by trace id, i.e. (origin, app_seq) *)
  let records = List.sort (fun a b -> compare a.r_tid b.r_tid) records in
  (records, List.rev !rejects)

let records t = fst (reconstruct t)
let rejects t = snd (reconstruct t)

(* --- latency records -------------------------------------------------- *)

type latency = {
  l_tid : int;
  l_node : int; (* delivering node *)
  l_sent : Vtime.t; (* origination time *)
  l_delivered : Vtime.t;
}

(* One compact record per (message, delivering node); only messages
   whose origination was observed qualify — a tid first seen mid-flight
   has no meaningful latency. *)
let latencies t =
  let records, _ = reconstruct t in
  List.concat_map
    (fun r ->
      match r.r_originated with
      | None -> []
      | Some sent ->
        List.map
          (fun (at, node) ->
            { l_tid = r.r_tid; l_node = node; l_sent = sent; l_delivered = at })
          r.r_deliveries)
    records

(* --- Chrome trace_event export ---------------------------------------- *)

(* One nestable async flow per message, keyed by the trace id: a "b"
   (begin) at origination, "n" (instant) marks for ordering, flow
   deferral, per-network packet hops and retransmissions, an "X"
   (complete) delivery span per destination node, and an "e" (end) at
   the final delivery. pid is the origin node (so each origin's
   messages group together in the viewer); tid is the node the step
   happened on. Unattributable wire rejects become "i" instants on the
   rejecting node. Timestamps are microseconds (trace_event
   convention); virtual time is integer nanoseconds, so %.3f is
   exact. *)
let us_of t = float_of_int t /. 1000.0

let chrome_json t =
  let records, rejects = reconstruct t in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let obj fields =
    if !first then first := false else Buffer.add_string buf ",\n";
    Buffer.add_string buf "    {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "\"%s\":%s" k v))
      fields;
    Buffer.add_char buf '}'
  in
  let s v = Printf.sprintf "\"%s\"" (Telemetry.json_escape v) in
  let num_us at = Printf.sprintf "%.3f" (us_of at) in
  Buffer.add_string buf "{\n  \"traceEvents\": [\n";
  List.iter
    (fun r ->
      let name = s (Printf.sprintf "msg N%d#%d" r.r_origin r.r_app_seq) in
      let id = string_of_int r.r_tid in
      let base at node =
        [ ("name", name); ("cat", s "msg"); ("id", id);
          ("pid", string_of_int r.r_origin); ("tid", string_of_int node);
          ("ts", num_us at) ]
      in
      let start_at =
        match (r.r_originated, r.r_ordered, r.r_deliveries) with
        | Some at, _, _ -> Some at
        | None, (at, _, _, _, _) :: _, _ -> Some at
        | None, [], (at, _) :: _ -> Some at
        | None, [], [] -> None
      in
      match start_at with
      | None -> ()
      | Some t0 ->
        let last =
          List.fold_left
            (fun acc (at, _) -> Vtime.max acc at)
            (List.fold_left
               (fun acc (at, _, _, _, _) -> Vtime.max acc at)
               t0 r.r_ordered)
            r.r_deliveries
        in
        obj (("ph", s "b") :: base t0 r.r_origin
            @ [ ( "args",
                  Printf.sprintf "{\"bytes\":%d,\"safe\":%s}" r.r_bytes
                    (if r.r_safe then "true" else "false") ) ]);
        List.iter
          (fun at ->
            obj
              (("ph", s "n") :: base at r.r_origin
              @ [ ("args", "{\"step\":\"flow_defer\"}") ]))
          r.r_defers;
        List.iter
          (fun (at, ring, seq, frag, frags) ->
            obj
              (("ph", s "n") :: base at r.r_origin
              @ [ ( "args",
                    Printf.sprintf
                      "{\"step\":\"ordered\",\"ring\":%d,\"seq\":%d,\"frag\":\"%d/%d\"}"
                      ring seq frag frags ) ]))
          r.r_ordered;
        List.iter
          (fun h ->
            obj
              (("ph", s "n") :: base h.hop_at h.hop_node
              @ [ ( "args",
                    Printf.sprintf
                      "{\"step\":\"packet_%s\",\"net\":%d,\"from\":%d}"
                      (match h.hop_dir with `Send -> "send" | `Recv -> "recv")
                      h.hop_net h.hop_sender ) ]))
          r.r_hops;
        List.iter
          (fun (at, node) ->
            obj
              (("ph", s "n") :: base at node
              @ [ ("args", Printf.sprintf "{\"step\":\"rtr_serve\",\"by\":%d}" node) ]))
          r.r_retransmits;
        let span_start =
          match r.r_ordered with (at, _, _, _, _) :: _ -> at | [] -> t0
        in
        List.iter
          (fun (at, node) ->
            obj
              ([ ("ph", s "X");
                 ("name", s (Printf.sprintf "deliver N%d#%d" r.r_origin r.r_app_seq));
                 ("cat", s "deliver"); ("pid", string_of_int r.r_origin);
                 ("tid", string_of_int node); ("ts", num_us span_start);
                 ( "dur",
                   Printf.sprintf "%.3f"
                     (Float.max 0.0 (us_of at -. us_of span_start)) ) ]))
          r.r_deliveries;
        obj (("ph", s "e") :: base last r.r_origin))
    records;
  List.iter
    (fun rej ->
      obj
        [ ("ph", s "i");
          ("name", s (if rej.rej_crc then "crc_reject" else "decode_reject"));
          ("cat", s "wire"); ("pid", string_of_int rej.rej_node);
          ("tid", string_of_int rej.rej_node); ("ts", num_us rej.rej_at);
          ("s", s "t");
          ( "args",
            Printf.sprintf "{\"net\":%d,\"src\":%d}" rej.rej_net rej.rej_src ) ])
    rejects;
  Buffer.add_string buf "\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n";
  Buffer.contents buf
