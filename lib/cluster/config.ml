type t = {
  num_nodes : int;
  num_nets : int;
  style : Totem_rrp.Style.t;
  const : Totem_srp.Const.t;
  rrp : Totem_rrp.Rrp_config.t;
  net : Totem_net.Network.config;
  net_configs : Totem_net.Network.config array option;
  buffer_bytes : int;
  seed : int;
  codec_shadow : bool;
  wire_bytes : bool;
  wire_cache : bool;
  sim_domains : int;
}

let make ?(num_nodes = 4) ?(num_nets = 2) ?(style = Totem_rrp.Style.Passive)
    ?(const = Totem_srp.Const.default) ?(rrp = Totem_rrp.Rrp_config.default)
    ?(net = Totem_net.Network.default_config) ?net_configs
    ?(buffer_bytes = 65536) ?(seed = 42) ?(codec_shadow = false)
    ?(wire_bytes = false) ?(wire_cache = true) ?(sim_domains = 1) () =
  {
    num_nodes;
    num_nets;
    style;
    const;
    rrp;
    net;
    net_configs;
    buffer_bytes;
    seed;
    codec_shadow;
    wire_bytes;
    wire_cache;
    sim_domains;
  }

let paper_testbed ~num_nodes ~style = make ~num_nodes ~num_nets:2 ~style ()

(* The conservative lookahead the parallel core synchronizes on. *)
let min_net_latency t =
  match t.net_configs with
  | Some cs ->
    Array.fold_left
      (fun acc (c : Totem_net.Network.config) -> min acc c.latency)
      max_int cs
  | None -> t.net.Totem_net.Network.latency

let validate t =
  if t.num_nodes < 1 then Error "need at least one node"
  else if t.num_nets < 1 then Error "need at least one network"
  else if t.sim_domains < 1 then Error "sim_domains must be >= 1"
  else if min_net_latency t <= 0 then
    Error "the network latency (the exchange lookahead) must be positive"
  else
    match t.net_configs with
    | Some cs when Array.length cs <> t.num_nets ->
      Error "net_configs length must equal num_nets"
    | _ -> Totem_rrp.Style.validate t.style ~num_nets:t.num_nets
