(* Flight recorder: a bounded per-node ring of the most recent
   telemetry events, cheap enough to leave attached for whole chaos
   campaigns so that an invariant violation arrives with the exact
   event history that preceded it.

   Cost model: one Telemetry.subscribe observer; each event is O(1) —
   an array store plus one entry record — and nothing allocates when no
   events flow (the rings are preallocated). Attaching a recorder makes
   the hub [active], so emit sites start constructing events; like
   every subscriber it is read-only with respect to protocol state, so
   the simulation stays bitwise identical (OBSERVABILITY.md invariant
   2). Under [sim_domains >= 1] the recorder subscribes on the root hub
   and therefore sees the canonical (time, node, seq) drain order —
   dumps are identical for every domain count. *)

type ring = {
  slots : Telemetry.entry option array;
  mutable next : int;
  mutable count : int;
}

let ring_create capacity = { slots = Array.make capacity None; next = 0; count = 0 }

let ring_push r e =
  let cap = Array.length r.slots in
  r.slots.(r.next) <- Some e;
  r.next <- (r.next + 1) mod cap;
  r.count <- min (r.count + 1) cap

let ring_entries r =
  let cap = Array.length r.slots in
  let start = (r.next - r.count + cap) mod cap in
  let out = ref [] in
  for i = r.count - 1 downto 0 do
    match r.slots.((start + i) mod cap) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

type t = {
  capacity : int;
  nodes : ring array;
  fabric : ring; (* events with no owning node (losses, corruption, ...) *)
  tel : Telemetry.t;
  mutable sub : Telemetry.subscription option;
}

let record t time event =
  let entry = { Telemetry.time; event } in
  match Telemetry.node_of_event event with
  | Some node when node >= 0 && node < Array.length t.nodes ->
    ring_push t.nodes.(node) entry
  | _ -> ring_push t.fabric entry

let attach ?(capacity = 64) ~nodes tel =
  if capacity <= 0 then invalid_arg "Recorder.attach: capacity must be positive";
  if nodes <= 0 then invalid_arg "Recorder.attach: nodes must be positive";
  let t =
    {
      capacity;
      nodes = Array.init nodes (fun _ -> ring_create capacity);
      fabric = ring_create capacity;
      tel;
      sub = None;
    }
  in
  t.sub <- Some (Telemetry.subscribe tel (record t));
  t

let detach t =
  match t.sub with
  | Some s ->
    Telemetry.unsubscribe t.tel s;
    t.sub <- None
  | None -> ()

let capacity t = t.capacity
let num_nodes t = Array.length t.nodes

(* (node, entries) pairs for every non-empty ring, node order, with the
   fabric ring last under key -1 — the shape the chaos counterexample
   serializer embeds. *)
let dump t =
  let out = ref [] in
  if t.fabric.count > 0 then out := (-1, ring_entries t.fabric) :: !out;
  for node = Array.length t.nodes - 1 downto 0 do
    if t.nodes.(node).count > 0 then
      out := (node, ring_entries t.nodes.(node)) :: !out
  done;
  !out

let dump_jsonl t =
  List.map
    (fun (node, entries) ->
      ( node,
        List.map
          (fun (e : Telemetry.entry) -> Telemetry.json_of_event e.time e.event)
          entries ))
    (dump t)

let clear t =
  let reset r =
    Array.fill r.slots 0 (Array.length r.slots) None;
    r.next <- 0;
    r.count <- 0
  in
  Array.iter reset t.nodes;
  reset t.fabric
