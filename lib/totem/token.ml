type t = {
  ring_id : int;
  seq : int;
  rotation : int;
  hops : int;
  aru : int;
  aru_setter : Totem_net.Addr.node_id;
  fcc : int;
  rtr : int list;
  ring : Totem_net.Addr.node_id array;
}

let initial ~ring ~ring_id =
  if Array.length ring = 0 then invalid_arg "Token.initial: empty ring";
  {
    ring_id;
    seq = 0;
    rotation = 0;
    hops = 0;
    aru = 0;
    aru_setter = ring.(0);
    fcc = 0;
    rtr = [];
    ring;
  }

let key t = (t.ring_id, t.hops)

let newer_than t ~than = compare (key t) (key than) > 0

let same_instance a b = key a = key b

let payload_bytes c t = Const.token_payload_bytes c ~rtr_len:(List.length t.rtr)
