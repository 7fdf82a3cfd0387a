module Vtime = Totem_engine.Vtime
module Rng = Totem_engine.Rng
module Style = Totem_rrp.Style
module Scenario = Totem_cluster.Scenario

(* Fault operations are a serializable mirror of Scenario.action: no
   Custom closures, so a campaign can round-trip through a .chaos.json
   file and replay bit-for-bit. *)
type op =
  | Fail_net of int
  | Heal_net of int
  | Set_loss of int * float
  | Set_corrupt of int * float
  | Set_burst_loss of int * float * float
  | Set_delay_factor of int * float * float
  | Set_dir_loss of int * int * int * float
  | Set_duplicate of int * float
  | Set_reorder of int * float
  | Block_send of int * int
  | Unblock_send of int * int
  | Block_recv of int * int
  | Unblock_recv of int * int
  | Partition of int * int list * int list
  | Unpartition of int * int list * int list
  | Crash of int
  | Recover of int

type step = { at : Vtime.t; op : op }

type traffic =
  | Bursts of (int * int * int * Vtime.t) list
  | Saturate of int

type t = {
  num_nodes : int;
  num_nets : int;
  style : Style.t;
  seed : int;
  duration : Vtime.t;
  quiesce : Vtime.t;
  traffic : traffic;
  steps : step list;
  wire : bool;
  reinstate : bool;
}

let to_action = function
  | Fail_net n -> Scenario.Fail_network n
  | Heal_net n -> Scenario.Heal_network n
  | Set_loss (n, p) -> Scenario.Set_loss (n, p)
  | Set_corrupt (n, p) -> Scenario.Set_corrupt (n, p)
  | Set_burst_loss (n, p_enter, p_exit) ->
    Scenario.Set_burst_loss (n, p_enter, p_exit)
  | Set_delay_factor (n, factor, spike) ->
    Scenario.Set_delay_factor (n, factor, spike)
  | Set_dir_loss (n, src, dst, p) -> Scenario.Set_dir_loss (n, src, dst, p)
  | Set_duplicate (n, p) -> Scenario.Set_duplicate (n, p)
  | Set_reorder (n, p) -> Scenario.Set_reorder (n, p)
  | Block_send (node, net) -> Scenario.Block_send (node, net)
  | Unblock_send (node, net) -> Scenario.Unblock_send (node, net)
  | Block_recv (node, net) -> Scenario.Block_recv (node, net)
  | Unblock_recv (node, net) -> Scenario.Unblock_recv (node, net)
  | Partition (net, from_nodes, to_nodes) ->
    Scenario.Partition { net; from_nodes; to_nodes }
  | Unpartition (net, from_nodes, to_nodes) ->
    Scenario.Unpartition { net; from_nodes; to_nodes }
  | Crash n -> Scenario.Crash_node n
  | Recover n -> Scenario.Recover_node n

let pp_op ppf op = Scenario.pp_action ppf (to_action op)

let make ?(num_nodes = 4) ?(num_nets = 2) ?(style = Style.Passive) ?(seed = 42)
    ?(duration = Vtime.sec 2) ?(quiesce = Vtime.sec 5)
    ?(traffic = Saturate 1024) ?(wire = false) ?(reinstate = false) steps =
  (* Stable sort by time: steps keep their list order within an instant,
     which is also the order the runner schedules them in, so the
     serialized form is canonical. *)
  let steps = List.stable_sort (fun a b -> compare a.at b.at) steps in
  {
    num_nodes;
    num_nets;
    style;
    seed;
    duration;
    quiesce;
    traffic;
    steps;
    wire;
    reinstate;
  }

(* --- combinators ---------------------------------------------------- *)

let flap ~net ~period ?(duty = 0.5) ~from_ ~until () =
  if duty <= 0.0 || duty >= 1.0 then invalid_arg "Campaign.flap: duty in (0,1)";
  if period <= 0 then invalid_arg "Campaign.flap: period must be positive";
  let down = Vtime.of_float_sec (Vtime.to_float_sec period *. duty) in
  let rec go t acc =
    if Vtime.( >= ) t until then List.rev acc
    else
      let heal_at = Vtime.min until (Vtime.add t down) in
      go
        (Vtime.add t period)
        ({ at = heal_at; op = Heal_net net } :: { at = t; op = Fail_net net } :: acc)
  in
  go from_ []

let rolling_partition ~net ~nodes ~dwell ~from_ ~rounds =
  (match nodes with
  | _ :: _ :: _ -> ()
  | _ -> invalid_arg "Campaign.rolling_partition: need at least two nodes");
  if rounds < 1 then invalid_arg "Campaign.rolling_partition: rounds >= 1";
  let n = List.length nodes in
  let arr = Array.of_list nodes in
  List.concat
    (List.init rounds (fun r ->
         let src = [ arr.(r mod n) ] and dst = [ arr.((r + 1) mod n) ] in
         let t0 = Vtime.add from_ (Vtime.of_float_sec
                                     (Vtime.to_float_sec dwell *. float_of_int r)) in
         [
           { at = t0; op = Partition (net, src, dst) };
           { at = Vtime.add t0 dwell; op = Unpartition (net, src, dst) };
         ]))

let loss_ramp ~net ~from_ ~until ~stages ~peak =
  if stages < 1 then invalid_arg "Campaign.loss_ramp: stages >= 1";
  if peak < 0.0 || peak > 1.0 then invalid_arg "Campaign.loss_ramp: peak in [0,1]";
  let span = Vtime.to_float_sec (Vtime.sub until from_) in
  if span <= 0.0 then invalid_arg "Campaign.loss_ramp: until after from_";
  let ramp =
    List.init stages (fun i ->
        let frac = float_of_int (i + 1) /. float_of_int stages in
        {
          at = Vtime.add from_ (Vtime.of_float_sec (span *. float_of_int i /. float_of_int stages));
          op = Set_loss (net, peak *. frac);
        })
  in
  ramp @ [ { at = until; op = Set_loss (net, 0.0) } ]

let corrupt_window ~net ~from_ ~until ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Campaign.corrupt_window: p in [0,1]";
  [
    { at = from_; op = Set_corrupt (net, p) };
    { at = until; op = Set_corrupt (net, 0.0) };
  ]

let corruption_ramp ~net ~from_ ~until ~stages ~peak =
  if stages < 1 then invalid_arg "Campaign.corruption_ramp: stages >= 1";
  if peak < 0.0 || peak > 1.0 then
    invalid_arg "Campaign.corruption_ramp: peak in [0,1]";
  let span = Vtime.to_float_sec (Vtime.sub until from_) in
  if span <= 0.0 then invalid_arg "Campaign.corruption_ramp: until after from_";
  let ramp =
    List.init stages (fun i ->
        let frac = float_of_int (i + 1) /. float_of_int stages in
        {
          at =
            Vtime.add from_
              (Vtime.of_float_sec
                 (span *. float_of_int i /. float_of_int stages));
          op = Set_corrupt (net, peak *. frac);
        })
  in
  ramp @ [ { at = until; op = Set_corrupt (net, 0.0) } ]

(* --- gray-failure combinators --------------------------------------- *)

let gray_window ~net ~from_ ~until ~p_enter ~p_exit ?(factor = 1.0)
    ?(spike = 0.0) () =
  if p_enter < 0.0 || p_enter > 1.0 || p_exit < 0.0 || p_exit > 1.0 then
    invalid_arg "Campaign.gray_window: probabilities in [0,1]";
  if spike < 0.0 || spike > 1.0 then
    invalid_arg "Campaign.gray_window: spike in [0,1]";
  [
    { at = from_; op = Set_burst_loss (net, p_enter, p_exit) };
    { at = from_; op = Set_delay_factor (net, factor, spike) };
    { at = until; op = Set_burst_loss (net, 0.0, 1.0) };
    { at = until; op = Set_delay_factor (net, 1.0, 0.0) };
  ]

(* Alternating heavy-burst and clean windows: the network condemns under
   the storm, probes during the calm, and (with reinstatement on)
   re-condemns under the next storm — the flap-damping stress shape. *)
let flap_storm ~net ~from_ ~cycles ~storm ~calm =
  if cycles < 1 then invalid_arg "Campaign.flap_storm: cycles >= 1";
  if Vtime.( <= ) storm Vtime.zero || Vtime.( <= ) calm Vtime.zero then
    invalid_arg "Campaign.flap_storm: storm/calm must be positive";
  List.concat
    (List.init cycles (fun i ->
         let t0 = Vtime.add from_ ((storm + calm) * i) in
         [
           { at = t0; op = Set_burst_loss (net, 0.9, 0.05) };
           { at = Vtime.add t0 storm; op = Set_burst_loss (net, 0.0, 1.0) };
         ]))

let gilbert_ramp ~net ~from_ ~until ~stages ~peak =
  if stages < 1 then invalid_arg "Campaign.gilbert_ramp: stages >= 1";
  if peak <= 0.0 || peak >= 1.0 then
    invalid_arg "Campaign.gilbert_ramp: peak in (0,1)";
  let span = Vtime.to_float_sec (Vtime.sub until from_) in
  if span <= 0.0 then invalid_arg "Campaign.gilbert_ramp: until after from_";
  (* Fixed mean burst length (1/p_exit = 5 deliveries); the steady-state
     loss p_enter/(p_enter+p_exit) climbs linearly to [peak]. *)
  let p_exit = 0.2 in
  let ramp =
    List.init stages (fun i ->
        let ss = peak *. (float_of_int (i + 1) /. float_of_int stages) in
        let p_enter = ss *. p_exit /. (1.0 -. ss) in
        {
          at =
            Vtime.add from_
              (Vtime.of_float_sec
                 (span *. float_of_int i /. float_of_int stages));
          op = Set_burst_loss (net, Float.min p_enter 1.0, p_exit);
        })
  in
  ramp @ [ { at = until; op = Set_burst_loss (net, 0.0, 1.0) } ]

let send_block_window ~node ~net ~from_ ~until =
  [
    { at = from_; op = Block_send (node, net) };
    { at = until; op = Unblock_send (node, net) };
  ]

let recv_block_window ~node ~net ~from_ ~until =
  [
    { at = from_; op = Block_recv (node, net) };
    { at = until; op = Unblock_recv (node, net) };
  ]

let kill_window ~node ~at ?recover_at () =
  { at; op = Crash node }
  ::
  (match recover_at with
  | Some t -> [ { at = t; op = Recover node } ]
  | None -> [])

(* --- static analysis ------------------------------------------------ *)

let nets_of_op = function
  | Fail_net n | Heal_net n | Set_loss (n, _) | Set_corrupt (n, _) -> [ n ]
  | Set_burst_loss (n, _, _) | Set_delay_factor (n, _, _) -> [ n ]
  | Set_dir_loss (n, _, _, _) | Set_duplicate (n, _) | Set_reorder (n, _) ->
    [ n ]
  | Block_send (_, n) | Unblock_send (_, n) -> [ n ]
  | Block_recv (_, n) | Unblock_recv (_, n) -> [ n ]
  | Partition (n, _, _) | Unpartition (n, _, _) -> [ n ]
  | Crash _ | Recover _ -> []

(* A network is "touched" when the campaign injects a hard fault on it,
   or sporadic loss above [sporadic_loss_max] — the rate the paper's
   decay mechanisms are expected to absorb without condemnation (A5/P5).
   Untouched ("virgin") networks must never be declared faulty. *)
let touched_nets ?(sporadic_loss_max = 0.0) t =
  let touched = Array.make t.num_nets false in
  List.iter
    (fun { op; _ } ->
      match op with
      | Set_loss (n, p) | Set_corrupt (n, p) | Set_dir_loss (n, _, _, p) ->
        if p > sporadic_loss_max then touched.(n) <- true
      | Set_burst_loss (n, p_enter, _) ->
        if p_enter > sporadic_loss_max then touched.(n) <- true
      | Set_delay_factor (n, factor, spike) ->
        if factor > 1.0 || spike > sporadic_loss_max then touched.(n) <- true
      (* Duplicates and reordering never drop anything: the SRP's
         duplicate filter and retransmission machinery must absorb them
         without a fault mark, so they leave a network virgin. *)
      | Set_duplicate _ | Set_reorder _ -> ()
      | Heal_net _ -> ()
      | op -> List.iter (fun n -> touched.(n) <- true) (nets_of_op op))
    t.steps;
  touched

(* Networks on which the campaign ever injects corruption: the
   corruption-confinement invariant requires every corruption artifact
   (in-flight mutation, CRC/decode discard) to land on one of these. *)
let corrupt_nets t =
  let hit = Array.make t.num_nets false in
  List.iter
    (fun { op; _ } ->
      match op with
      | Set_corrupt (n, p) -> if p > 0.0 then hit.(n) <- true
      | _ -> ())
    t.steps;
  hit

let has_crashes t =
  List.exists (fun { op; _ } -> match op with Crash _ -> true | _ -> false) t.steps

(* Whether the campaign stays inside the paper's fault hypothesis: no
   processor crashes, and at every instant at least one network carries
   no fault at all (not even sporadic loss). Under a tolerated campaign
   the protocol must mask everything — same order, same deliveries, no
   membership change. *)
let tolerated t =
  if has_crashes t then false
  else begin
    (* Per-net fault state replayed over the sorted step list. *)
    let down = Array.make t.num_nets false in
    let loss = Array.make t.num_nets 0.0 in
    let corrupt = Array.make t.num_nets 0.0 in
    let blocks = Array.make t.num_nets 0 in
    let burst = Array.make t.num_nets 0.0 in
    let delay = Array.make t.num_nets 0.0 in
    let dirloss = Hashtbl.create 8 in
    let dirloss_on n =
      Hashtbl.fold
        (fun (net, _, _) p acc -> acc || (net = n && p > 0.0))
        dirloss false
    in
    let dup = Array.make t.num_nets 0.0 in
    let reorder = Array.make t.num_nets 0.0 in
    let clean n =
      (not down.(n)) && loss.(n) = 0.0 && corrupt.(n) = 0.0 && blocks.(n) <= 0
      && burst.(n) = 0.0 && delay.(n) = 0.0
      && (not (dirloss_on n))
      && dup.(n) = 0.0 && reorder.(n) = 0.0
    in
    let some_clean () =
      let ok = ref false in
      for n = 0 to t.num_nets - 1 do
        if clean n then ok := true
      done;
      !ok
    in
    let apply = function
      | Fail_net n -> down.(n) <- true
      | Heal_net n ->
        down.(n) <- false;
        loss.(n) <- 0.0;
        corrupt.(n) <- 0.0;
        blocks.(n) <- 0;
        burst.(n) <- 0.0;
        delay.(n) <- 0.0;
        Hashtbl.fold (fun ((net, _, _) as k) _ acc ->
            if net = n then k :: acc else acc)
          dirloss []
        |> List.iter (fun k -> Hashtbl.replace dirloss k 0.0);
        dup.(n) <- 0.0;
        reorder.(n) <- 0.0
      | Set_loss (n, p) -> loss.(n) <- p
      | Set_corrupt (n, p) -> corrupt.(n) <- p
      (* "Clean" means no fault dimension at all, conservatively
         including the masked ones (duplicates, reordering). *)
      | Set_burst_loss (n, p_enter, _) -> burst.(n) <- p_enter
      | Set_delay_factor (n, factor, spike) ->
        delay.(n) <- Float.max (factor -. 1.0) spike
      | Set_dir_loss (n, src, dst, p) ->
        Hashtbl.replace dirloss (n, src, dst) p
      | Set_duplicate (n, p) -> dup.(n) <- p
      | Set_reorder (n, p) -> reorder.(n) <- p
      | Block_send (_, n) | Block_recv (_, n) -> blocks.(n) <- blocks.(n) + 1
      | Unblock_send (_, n) | Unblock_recv (_, n) ->
        blocks.(n) <- blocks.(n) - 1
      | Partition (n, src, dst) ->
        blocks.(n) <- blocks.(n) + (List.length src * List.length dst)
      | Unpartition (n, src, dst) ->
        blocks.(n) <- blocks.(n) - (List.length src * List.length dst)
      | Crash _ | Recover _ -> ()
    in
    List.for_all
      (fun { op; _ } ->
        apply op;
        some_clean ())
      t.steps
  end

let validate t =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let check_net n = n >= 0 && n < t.num_nets in
  let check_node n = n >= 0 && n < t.num_nodes in
  if t.num_nodes < 2 then err "num_nodes %d < 2" t.num_nodes
  else if t.num_nets < 1 then err "num_nets %d < 1" t.num_nets
  else if t.duration <= Vtime.zero then err "duration must be positive"
  else begin
    let bad_burst =
      match t.traffic with
      | Saturate size -> if size > 0 then None else Some "saturate size <= 0"
      | Bursts bs ->
        List.find_map
          (fun (node, size, count, at) ->
            if not (check_node node) then Some "burst node out of range"
            else if size <= 0 || count <= 0 then Some "burst size/count <= 0"
            else if Vtime.( < ) at Vtime.zero then Some "burst in the past"
            else None)
          bs
    in
    match bad_burst with
    | Some m -> Error m
    | None ->
      let bad_step =
        List.find_map
          (fun { at; op } ->
            if Vtime.( < ) at Vtime.zero then Some "step in the past"
            else
              let nets_ok = List.for_all check_net (nets_of_op op) in
              let nodes_ok =
                match op with
                | Block_send (n, _) | Unblock_send (n, _) | Block_recv (n, _)
                | Unblock_recv (n, _) | Crash n | Recover n ->
                  check_node n
                | Set_dir_loss (_, src, dst, _) ->
                  check_node src && check_node dst
                | Partition (_, a, b) | Unpartition (_, a, b) ->
                  List.for_all check_node (a @ b)
                | _ -> true
              in
              let in01 p = p >= 0.0 && p <= 1.0 in
              let loss_ok =
                match op with
                | Set_loss (_, p) | Set_corrupt (_, p) -> in01 p
                | Set_burst_loss (_, p_enter, p_exit) ->
                  in01 p_enter && in01 p_exit
                | Set_delay_factor (_, factor, spike) ->
                  factor >= 0.0 && in01 spike
                | Set_dir_loss (_, _, _, p)
                | Set_duplicate (_, p)
                | Set_reorder (_, p) ->
                  in01 p
                | _ -> true
              in
              if not nets_ok then Some "step net out of range"
              else if not nodes_ok then Some "step node out of range"
              else if not loss_ok then Some "loss outside [0,1]"
              else None)
          t.steps
      in
      (match bad_step with
      | Some m -> Error m
      | None -> (
        match Style.validate t.style ~num_nets:t.num_nets with
        | Ok () -> Ok ()
        | Error m -> Error m))
  end

(* --- random campaigns ------------------------------------------------ *)

(* Mirrors the original test_fuzz generator — random cluster shape,
   random fault timeline that never touches the last network (the
   paper's operating assumption that one network survives) — but draws
   from the richer op set, including windowed blocks and rolling
   partitions. *)
let random ~seed ?(duration = Vtime.sec 2) ?(quiesce = Vtime.sec 5)
    ?(wire = false) ?(corrupt = false) ?(gray = false) () =
  let rng = Rng.create ~seed in
  let num_nodes = 2 + Rng.int rng 4 in
  let num_nets = 2 + Rng.int rng 2 in
  let styles =
    if num_nets >= 3 then
      [| Style.Passive; Style.Active; Style.Active_passive 2 |]
    else [| Style.Passive; Style.Active |]
  in
  let style = Rng.pick rng styles in
  let dur_ms = int_of_float (Vtime.to_float_ms duration) in
  let rand_time () = Vtime.ms (100 + Rng.int rng (max 1 (dur_ms - 200))) in
  let rand_net () = Rng.int rng (num_nets - 1) in
  let rand_node () = Rng.int rng num_nodes in
  (* With [corrupt] the op draw widens by two corruption shapes, with
     [gray] by three gray shapes; with both off the draw is
     [Rng.int rng 8] exactly as before, so existing seeds keep their
     campaigns bit-for-bit. Gray cases sit above the corruption ones
     and are renumbered down when [corrupt] is off. *)
  let op_cases =
    8 + (if corrupt then 2 else 0) + if gray then 3 else 0
  in
  let random_steps () =
    let net = rand_net () and node = rand_node () in
    let at = rand_time () in
    let case =
      let c = Rng.int rng op_cases in
      if c >= 8 && not corrupt then c + 2 else c
    in
    match case with
    | 0 -> [ { at; op = Fail_net net } ]
    | 1 -> [ { at; op = Heal_net net } ]
    | 2 -> [ { at; op = Set_loss (net, Rng.float rng 0.4) } ]
    | 3 ->
      send_block_window ~node ~net ~from_:at
        ~until:(Vtime.add at (Vtime.ms (50 + Rng.int rng 500)))
    | 4 ->
      recv_block_window ~node ~net ~from_:at
        ~until:(Vtime.add at (Vtime.ms (50 + Rng.int rng 500)))
    | 5 ->
      let other = (node + 1 + Rng.int rng (num_nodes - 1)) mod num_nodes in
      [ { at; op = Partition (net, [ node ], [ other ]) } ]
    | 6 ->
      let other = (node + 1 + Rng.int rng (num_nodes - 1)) mod num_nodes in
      rolling_partition ~net
        ~nodes:[ node; other ]
        ~dwell:(Vtime.ms (50 + Rng.int rng 200))
        ~from_:at ~rounds:(1 + Rng.int rng 3)
    | 7 ->
      flap ~net
        ~period:(Vtime.ms (100 + Rng.int rng 300))
        ~duty:(0.2 +. Rng.float rng 0.6) ~from_:at
        ~until:(Vtime.add at (Vtime.ms (200 + Rng.int rng 600)))
        ()
    | 8 ->
      corrupt_window ~net ~from_:at
        ~until:(Vtime.add at (Vtime.ms (100 + Rng.int rng 600)))
        ~p:(0.05 +. Rng.float rng 0.45)
    | 9 ->
      corruption_ramp ~net ~from_:at
        ~until:(Vtime.add at (Vtime.ms (200 + Rng.int rng 600)))
        ~stages:(2 + Rng.int rng 3)
        ~peak:(0.1 +. Rng.float rng 0.4)
    | 10 ->
      gray_window ~net ~from_:at
        ~until:(Vtime.add at (Vtime.ms (200 + Rng.int rng 600)))
        ~p_enter:(0.02 +. Rng.float rng 0.3)
        ~p_exit:(0.1 +. Rng.float rng 0.4)
        ~factor:(1.0 +. Rng.float rng 2.0)
        ~spike:(Rng.float rng 0.2) ()
    | 11 ->
      gilbert_ramp ~net ~from_:at
        ~until:(Vtime.add at (Vtime.ms (200 + Rng.int rng 600)))
        ~stages:(2 + Rng.int rng 3)
        ~peak:(0.1 +. Rng.float rng 0.5)
    | 12 ->
      let src = rand_node () in
      let dst = (src + 1 + Rng.int rng (num_nodes - 1)) mod num_nodes in
      let until = Vtime.add at (Vtime.ms (100 + Rng.int rng 500)) in
      [
        { at; op = Set_dir_loss (net, src, dst, 0.2 +. Rng.float rng 0.6) };
        { at = until; op = Set_dir_loss (net, src, dst, 0.0) };
      ]
    | _ -> assert false
  in
  let steps =
    List.concat (List.init (3 + Rng.int rng 6) (fun _ -> random_steps ()))
  in
  let bursts =
    List.init
      (5 + Rng.int rng 10)
      (fun _ ->
        ( rand_node (),
          64 + Rng.int rng 2000,
          5 + Rng.int rng 30,
          Vtime.ms (Rng.int rng dur_ms) ))
  in
  (* Gray campaigns exercise the reinstatement protocol too: condemned
     networks probe and rejoin once their gray window closes. *)
  make ~num_nodes ~num_nets ~style ~seed ~duration ~quiesce
    ~traffic:(Bursts bursts) ~wire ~reinstate:gray steps

let submitted_messages t =
  match t.traffic with
  | Saturate _ -> None
  | Bursts bs -> Some (List.fold_left (fun acc (_, _, count, _) -> acc + count) 0 bs)

(* --- JSON ------------------------------------------------------------ *)

let style_to_string = function
  | Style.No_replication -> "none"
  | Style.Active -> "active"
  | Style.Passive -> "passive"
  | Style.Active_passive k -> Printf.sprintf "ap:%d" k

let style_of_string s =
  match String.lowercase_ascii s with
  | "none" | "single" | "no-replication" -> Ok Style.No_replication
  | "active" -> Ok Style.Active
  | "passive" -> Ok Style.Passive
  | s when String.length s > 3 && String.sub s 0 3 = "ap:" -> (
    match int_of_string_opt (String.sub s 3 (String.length s - 3)) with
    | Some k -> Ok (Style.Active_passive k)
    | None -> Error "expected ap:<K>")
  | _ -> Error "expected none|active|passive|ap:<K>"

module J = Chaos_json

let json_of_op op =
  let o kvs = J.Obj kvs in
  match op with
  | Fail_net n -> o [ ("op", J.str "fail_net"); ("net", J.int n) ]
  | Heal_net n -> o [ ("op", J.str "heal_net"); ("net", J.int n) ]
  | Set_loss (n, p) -> o [ ("op", J.str "set_loss"); ("net", J.int n); ("p", J.Num p) ]
  | Set_corrupt (n, p) ->
    o [ ("op", J.str "set_corrupt"); ("net", J.int n); ("p", J.Num p) ]
  | Set_burst_loss (n, p_enter, p_exit) ->
    o
      [
        ("op", J.str "set_burst_loss");
        ("net", J.int n);
        ("p_enter", J.Num p_enter);
        ("p_exit", J.Num p_exit);
      ]
  | Set_delay_factor (n, factor, spike) ->
    o
      [
        ("op", J.str "set_delay_factor");
        ("net", J.int n);
        ("factor", J.Num factor);
        ("spike", J.Num spike);
      ]
  | Set_dir_loss (n, src, dst, p) ->
    o
      [
        ("op", J.str "set_dir_loss");
        ("net", J.int n);
        ("src", J.int src);
        ("dst", J.int dst);
        ("p", J.Num p);
      ]
  | Set_duplicate (n, p) ->
    o [ ("op", J.str "set_duplicate"); ("net", J.int n); ("p", J.Num p) ]
  | Set_reorder (n, p) ->
    o [ ("op", J.str "set_reorder"); ("net", J.int n); ("p", J.Num p) ]
  | Block_send (node, net) ->
    o [ ("op", J.str "block_send"); ("node", J.int node); ("net", J.int net) ]
  | Unblock_send (node, net) ->
    o [ ("op", J.str "unblock_send"); ("node", J.int node); ("net", J.int net) ]
  | Block_recv (node, net) ->
    o [ ("op", J.str "block_recv"); ("node", J.int node); ("net", J.int net) ]
  | Unblock_recv (node, net) ->
    o [ ("op", J.str "unblock_recv"); ("node", J.int node); ("net", J.int net) ]
  | Partition (net, src, dst) ->
    o
      [
        ("op", J.str "partition");
        ("net", J.int net);
        ("from", J.Arr (List.map J.int src));
        ("to", J.Arr (List.map J.int dst));
      ]
  | Unpartition (net, src, dst) ->
    o
      [
        ("op", J.str "unpartition");
        ("net", J.int net);
        ("from", J.Arr (List.map J.int src));
        ("to", J.Arr (List.map J.int dst));
      ]
  | Crash n -> o [ ("op", J.str "crash"); ("node", J.int n) ]
  | Recover n -> o [ ("op", J.str "recover"); ("node", J.int n) ]

let op_of_json v where =
  let net () = J.get_int v "net" where in
  let node () = J.get_int v "node" where in
  match J.get_str v "op" where with
  | "fail_net" -> Fail_net (net ())
  | "heal_net" -> Heal_net (net ())
  | "set_loss" -> Set_loss (net (), J.get_num v "p" where)
  | "set_corrupt" -> Set_corrupt (net (), J.get_num v "p" where)
  | "set_burst_loss" ->
    Set_burst_loss
      (net (), J.get_num v "p_enter" where, J.get_num v "p_exit" where)
  | "set_delay_factor" ->
    Set_delay_factor
      (net (), J.get_num v "factor" where, J.get_num v "spike" where)
  | "set_dir_loss" ->
    Set_dir_loss
      ( net (),
        J.get_int v "src" where,
        J.get_int v "dst" where,
        J.get_num v "p" where )
  | "set_duplicate" -> Set_duplicate (net (), J.get_num v "p" where)
  | "set_reorder" -> Set_reorder (net (), J.get_num v "p" where)
  | "block_send" -> Block_send (node (), net ())
  | "unblock_send" -> Unblock_send (node (), net ())
  | "block_recv" -> Block_recv (node (), net ())
  | "unblock_recv" -> Unblock_recv (node (), net ())
  | "partition" ->
    Partition (net (), J.get_int_list v "from" where, J.get_int_list v "to" where)
  | "unpartition" ->
    Unpartition (net (), J.get_int_list v "from" where, J.get_int_list v "to" where)
  | "crash" -> Crash (node ())
  | "recover" -> Recover (node ())
  | op -> raise (J.Parse_error (Printf.sprintf "%s: unknown op \"%s\"" where op))

let to_json t =
  let step s =
    match json_of_op s.op with
    | J.Obj kvs -> J.Obj (("at_ns", J.int s.at) :: kvs)
    | _ -> assert false
  in
  let traffic =
    match t.traffic with
    | Saturate size ->
      J.Obj [ ("kind", J.str "saturate"); ("size", J.int size) ]
    | Bursts bs ->
      J.Obj
        [
          ("kind", J.str "bursts");
          ( "bursts",
            J.Arr
              (List.map
                 (fun (node, size, count, at) ->
                   J.Obj
                     [
                       ("node", J.int node);
                       ("size", J.int size);
                       ("count", J.int count);
                       ("at_ns", J.int at);
                     ])
                 bs) );
        ]
  in
  J.Obj
    [
      ("nodes", J.int t.num_nodes);
      ("nets", J.int t.num_nets);
      ("style", J.str (style_to_string t.style));
      ("seed", J.int t.seed);
      ("duration_ns", J.int t.duration);
      ("quiesce_ns", J.int t.quiesce);
      ("wire_bytes", J.Bool t.wire);
      ("reinstate", J.Bool t.reinstate);
      ("traffic", traffic);
      ("steps", J.Arr (List.map step t.steps));
    ]

let of_json v where =
  let style =
    match style_of_string (J.get_str v "style" where) with
    | Ok s -> s
    | Error m -> raise (J.Parse_error (Printf.sprintf "%s: %s" where m))
  in
  let traffic =
    match J.field v "traffic" with
    | None -> raise (J.Parse_error (where ^ ": missing \"traffic\""))
    | Some tv -> (
      match J.get_str tv "kind" where with
      | "saturate" -> Saturate (J.get_int tv "size" where)
      | "bursts" ->
        Bursts
          (List.map
             (fun b ->
               ( J.get_int b "node" where,
                 J.get_int b "size" where,
                 J.get_int b "count" where,
                 J.get_int b "at_ns" where ))
             (J.get_list tv "bursts" where))
      | k ->
        raise (J.Parse_error (Printf.sprintf "%s: unknown traffic kind \"%s\"" where k)))
  in
  let steps =
    List.map
      (fun sv -> { at = J.get_int sv "at_ns" where; op = op_of_json sv where })
      (J.get_list v "steps" where)
  in
  {
    num_nodes = J.get_int v "nodes" where;
    num_nets = J.get_int v "nets" where;
    style;
    seed = J.get_int v "seed" where;
    duration = J.get_int v "duration_ns" where;
    quiesce = J.get_int v "quiesce_ns" where;
    traffic;
    steps;
    (* Absent in pre-wire-mode files: default to reference mode. *)
    wire = (match J.field v "wire_bytes" with Some (J.Bool b) -> b | _ -> false);
    (* Absent in pre-reinstatement files: condemnation is permanent. *)
    reinstate =
      (match J.field v "reinstate" with Some (J.Bool b) -> b | _ -> false);
  }
