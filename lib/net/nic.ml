open Totem_engine

type receiver = {
  cpu : Cpu.t option;
  recv_cost : Frame.t -> Vtime.t;
  handler : Frame.t -> unit;
}

type t = {
  sim : Sim.t;
  node_id : Addr.node_id;
  net_id : Addr.net_id;
  buffer_bytes : int;
  mutable receiver : receiver option;
  mutable in_use : int;
  mutable last_arrival : Vtime.t;
  received : Stats.Counter.t;
  dropped : Stats.Counter.t;
  (* Deliveries that fired at this NIC (before buffer admission). Held
     per-NIC rather than per-network so receivers on different domains
     count without cross-domain writes; the network sums its receivers. *)
  delivered : Stats.Counter.t;
  mutable telemetry : Telemetry.t option;
}

let create sim ~node ~net ?(buffer_bytes = 65536) () =
  {
    sim;
    node_id = node;
    net_id = net;
    buffer_bytes;
    receiver = None;
    in_use = 0;
    last_arrival = Vtime.zero;
    received = Stats.Counter.create ();
    dropped = Stats.Counter.create ();
    delivered = Stats.Counter.create ();
    telemetry = None;
  }

let node t = t.node_id
let net t = t.net_id
let sim t = t.sim
let set_telemetry t tl = t.telemetry <- Some tl

let set_receiver t ?cpu ?(recv_cost = fun _ -> Vtime.zero) handler =
  t.receiver <- Some { cpu; recv_cost; handler }

let arrive t frame =
  match t.receiver with
  | None -> Stats.Counter.incr t.dropped
  | Some { cpu = None; recv_cost = _; handler } ->
    Stats.Counter.incr t.received;
    handler frame
  | Some { cpu = Some cpu; recv_cost; handler } ->
    let size = Frame.wire_bytes frame in
    if t.in_use + size > t.buffer_bytes then begin
      Stats.Counter.incr t.dropped;
      match t.telemetry with
      | Some tl when Telemetry.active tl ->
        Telemetry.emit tl
          (Telemetry.Buffer_drop
             { node = t.node_id; net = t.net_id; bytes = size })
      | _ -> ()
    end
    else begin
      t.in_use <- t.in_use + size;
      Stats.Counter.incr t.received;
      Cpu.submit cpu ~cost:(recv_cost frame) (fun () ->
          t.in_use <- t.in_use - size;
          handler frame)
    end

let deliver t frame =
  Stats.Counter.incr t.delivered;
  arrive t frame

let last_arrival t = t.last_arrival
let note_arrival t time = t.last_arrival <- Vtime.max t.last_arrival time
let frames_delivered t = Stats.Counter.value t.delivered
let frames_received t = Stats.Counter.value t.received
let frames_dropped_buffer t = Stats.Counter.value t.dropped
