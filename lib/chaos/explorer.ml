module Vtime = Totem_engine.Vtime
module Rng = Totem_engine.Rng
module Cluster = Totem_cluster.Cluster
module Cluster_config = Totem_cluster.Config
module Srp = Totem_srp.Srp
module Token = Totem_srp.Token
module Rrp = Totem_rrp.Rrp
module Active = Totem_rrp.Active
module Passive = Totem_rrp.Passive
module Active_passive = Totem_rrp.Active_passive
module Monitor = Totem_rrp.Monitor
module Rrp_config = Totem_rrp.Rrp_config

type config = {
  num_nodes : int;
  num_nets : int;
  style : Totem_rrp.Style.t;
  seed : int;
  wire : bool;
  depth : int;
  alphabet : Campaign.op list;
  gap : Vtime.t option;
  settle : Vtime.t;
  hold : Vtime.t;
  quiesce : Vtime.t;
  monitor : Invariant.config;
  sim_domains : int;
  reinstate : bool;
}

let default_alphabet ~num_nets =
  if num_nets < 2 then
    invalid_arg "Explorer.default_alphabet: need at least 2 networks";
  List.concat
    (List.init (num_nets - 1) (fun net ->
         [
           Campaign.Fail_net net;
           Campaign.Heal_net net;
           Campaign.Set_corrupt (net, 0.5);
           Campaign.Set_corrupt (net, 0.0);
           Campaign.Partition (net, [ 0 ], [ 1 ]);
           Campaign.Unpartition (net, [ 0 ], [ 1 ]);
         ]))

(* The gray alphabet pairs each gray dimension's on-op with its off-op,
   so interleavings cover episodes that overlap, nest and cut short.
   Heavy burst loss (steady state ~0.9) condemns quickly; meant to run
   with [reinstate] so probation interleaves with fresh faults. *)
let gray_alphabet ~num_nets =
  if num_nets < 2 then
    invalid_arg "Explorer.gray_alphabet: need at least 2 networks";
  List.concat
    (List.init (num_nets - 1) (fun net ->
         [
           Campaign.Set_burst_loss (net, 0.9, 0.1);
           Campaign.Set_burst_loss (net, 0.0, 1.0);
           Campaign.Set_delay_factor (net, 4.0, 0.2);
           Campaign.Set_delay_factor (net, 1.0, 0.0);
           Campaign.Set_dir_loss (net, 0, 1, 0.8);
           Campaign.Set_dir_loss (net, 0, 1, 0.0);
         ]))

let make ?(num_nodes = 3) ?(num_nets = 2) ?(style = Totem_rrp.Style.Active)
    ?(seed = 42) ?(wire = true) ?(depth = 3) ?alphabet ?gap
    ?(settle = Vtime.ms 40) ?(hold = Vtime.ms 40) ?(quiesce = Vtime.ms 500)
    ?(monitor = Invariant.default) ?(sim_domains = 1) ?(reinstate = false) () =
  let alphabet =
    match alphabet with Some a -> a | None -> default_alphabet ~num_nets
  in
  {
    num_nodes;
    num_nets;
    style;
    seed;
    wire;
    depth;
    alphabet;
    gap;
    settle;
    hold;
    quiesce;
    monitor;
    sim_domains;
    reinstate;
  }

(* --- decision-point schedule ----------------------------------------- *)

(* Vtime.t is integer nanoseconds, so schedule arithmetic is exact. *)
let decision_time cfg ~gap i = Vtime.add cfg.settle (i * gap)

let calibrated_gap cfg =
  match cfg.gap with
  | Some g -> g
  | None ->
    (* Measure the token-rotation time on a clean run of the same
       cluster shape, at the default worker count (any count gives the
       same answer). One rotation = one token visit at node 0. *)
    let config =
      Cluster_config.make ~num_nodes:cfg.num_nodes ~num_nets:cfg.num_nets
        ~style:cfg.style ~seed:cfg.seed ~wire_bytes:cfg.wire ()
    in
    let cluster = Cluster.create config in
    Cluster.start cluster;
    Cluster.run_until cluster cfg.settle;
    let stats = Srp.stats (Cluster.srp (Cluster.node cluster 0)) in
    let v0 = stats.Srp.token_visits in
    let window = Vtime.ms 50 in
    Cluster.run_until cluster (Vtime.add cfg.settle window);
    let rotations = max 1 (stats.Srp.token_visits - v0) in
    (* Two rotations between decisions, floored so token timeouts and
       problem-counter increments can land between consecutive ops. *)
    Vtime.max (2 * (window / rotations)) (Vtime.ms 5)

(* The workload is a function of the config alone — never of the path —
   so a prefix run and every leaf run under it carry identical traffic
   and state fingerprints compare like for like. *)
let traffic cfg ~gap =
  let early = List.init cfg.num_nodes (fun n -> (n, 200, 4, Vtime.ms 2)) in
  let during =
    List.init cfg.depth (fun i ->
        ( i mod cfg.num_nodes,
          200,
          2,
          Vtime.add (decision_time cfg ~gap i) (gap / 2) ))
  in
  Campaign.Bursts (early @ during)

let campaign_of_path cfg ~gap ~duration path =
  let steps =
    List.mapi
      (fun i op -> { Campaign.at = decision_time cfg ~gap i; op })
      path
  in
  Campaign.make ~num_nodes:cfg.num_nodes ~num_nets:cfg.num_nets
    ~style:cfg.style ~seed:cfg.seed ~duration ~quiesce:cfg.quiesce
    ~traffic:(traffic cfg ~gap) ~wire:cfg.wire ~reinstate:cfg.reinstate steps

let leaf_campaign cfg ~gap path =
  campaign_of_path cfg ~gap
    ~duration:(Vtime.add (decision_time cfg ~gap cfg.depth) cfg.hold)
    path

(* --- state fingerprints ---------------------------------------------- *)

type fingerprint = int64

let fnv64 s =
  let prime = 0x100000001b3L in
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

(* Symbolic environment after a prefix of ops: which faults are applied
   now, and — for total failures — since which decision index (the A6
   detection bound runs from the injection instant, so two prefixes
   that failed the same net at different times must not collide).
   Mirrors [Fault] semantics: ops are idempotent and [Heal_net] clears
   everything on its network, loss and corruption included. *)
let env_string cfg path =
  let n = cfg.num_nets in
  let failed_at = Array.make n (-1) in
  let corrupt = Array.make n 0.0 in
  let loss = Array.make n 0.0 in
  let burst = Array.make n (0.0, 1.0) in
  let delay = Array.make n (1.0, 0.0) in
  let dup = Array.make n 0.0 in
  let reorder = Array.make n 0.0 in
  let dirloss = ref [] in
  (* (net, src, dst, p) *)
  let pairs = ref [] in
  (* (net, from, to) partition edges *)
  let send_blocked = ref [] and recv_blocked = ref [] in
  let crashed = Array.make cfg.num_nodes false in
  List.iteri
    (fun i op ->
      match op with
      | Campaign.Fail_net net ->
        if failed_at.(net) < 0 then failed_at.(net) <- i
      | Campaign.Heal_net net ->
        failed_at.(net) <- -1;
        corrupt.(net) <- 0.0;
        loss.(net) <- 0.0;
        burst.(net) <- (0.0, 1.0);
        delay.(net) <- (1.0, 0.0);
        dup.(net) <- 0.0;
        reorder.(net) <- 0.0;
        dirloss := List.filter (fun (nt, _, _, _) -> nt <> net) !dirloss;
        pairs := List.filter (fun (nt, _, _) -> nt <> net) !pairs;
        send_blocked := List.filter (fun (_, nt) -> nt <> net) !send_blocked;
        recv_blocked := List.filter (fun (_, nt) -> nt <> net) !recv_blocked
      | Campaign.Set_loss (net, p) -> loss.(net) <- p
      | Campaign.Set_corrupt (net, p) -> corrupt.(net) <- p
      | Campaign.Set_burst_loss (net, p_enter, p_exit) ->
        (* Mirror Fault.set_burst_loss: p_enter = 0 disables (canonical
           off state), p_exit floored while enabled. *)
        burst.(net) <-
          (if p_enter <= 0.0 then (0.0, 1.0)
           else (p_enter, Float.max p_exit 0.001))
      | Campaign.Set_delay_factor (net, factor, spike) ->
        delay.(net) <- (Float.max factor 1.0, spike)
      | Campaign.Set_dir_loss (net, src, dst, p) ->
        dirloss := List.filter (fun (nt, s, d, _) ->
            not (nt = net && s = src && d = dst)) !dirloss;
        if p > 0.0 then dirloss := (net, src, dst, p) :: !dirloss
      | Campaign.Set_duplicate (net, p) -> dup.(net) <- p
      | Campaign.Set_reorder (net, p) -> reorder.(net) <- p
      | Campaign.Partition (net, a, b) ->
        let e = (net, a, b) in
        if not (List.mem e !pairs) then pairs := e :: !pairs
      | Campaign.Unpartition (net, a, b) ->
        pairs := List.filter (fun e -> e <> (net, a, b)) !pairs
      | Campaign.Block_send (node, net) ->
        let e = (node, net) in
        if not (List.mem e !send_blocked) then
          send_blocked := e :: !send_blocked
      | Campaign.Unblock_send (node, net) ->
        send_blocked := List.filter (fun e -> e <> (node, net)) !send_blocked
      | Campaign.Block_recv (node, net) ->
        let e = (node, net) in
        if not (List.mem e !recv_blocked) then
          recv_blocked := e :: !recv_blocked
      | Campaign.Unblock_recv (node, net) ->
        recv_blocked := List.filter (fun e -> e <> (node, net)) !recv_blocked
      | Campaign.Crash node -> crashed.(node) <- true
      | Campaign.Recover node -> crashed.(node) <- false)
    path;
  let b = Buffer.create 128 in
  Array.iteri
    (fun net f ->
      let p_enter, p_exit = burst.(net) in
      let factor, spike = delay.(net) in
      Printf.bprintf b "n%d:F%d;C%.4f;L%.4f;B%.4f/%.4f;D%.4f/%.4f;U%.4f;O%.4f "
        net f corrupt.(net) loss.(net) p_enter p_exit factor spike dup.(net)
        reorder.(net))
    failed_at;
  let dump_dir l =
    Buffer.add_string b "G";
    List.iter
      (fun (net, s, d, p) -> Printf.bprintf b "(%d:%d>%d@%.4f)" net s d p)
      (List.sort compare l)
  in
  dump_dir !dirloss;
  let dump tag l pr =
    Buffer.add_string b tag;
    List.iter pr (List.sort compare l)
  in
  dump "P" !pairs (fun (net, a, b') ->
      Printf.bprintf b "(%d:%s>%s)" net
        (String.concat "," (List.map string_of_int a))
        (String.concat "," (List.map string_of_int b')));
  dump "S" !send_blocked (fun (nd, nt) -> Printf.bprintf b "(%d,%d)" nd nt);
  dump "R" !recv_blocked (fun (nd, nt) -> Printf.bprintf b "(%d,%d)" nd nt);
  Array.iteri (fun nd c -> if c then Printf.bprintf b "X%d" nd) crashed;
  Buffer.contents b

(* The protocol-state projection: per node, ring membership and id,
   aru / highest-seen / safe horizon, delivery frontier, send queue,
   token visits, per-net fault marks, and the style's health state
   (problem counters, reception-count monitors, pending token copies).
   Read-only, and read only at [run_until] boundaries. *)
let state_string cfg env cluster =
  let b = Buffer.create 512 in
  Buffer.add_string b env;
  for node = 0 to cfg.num_nodes - 1 do
    let nd = Cluster.node cluster node in
    let srp = Cluster.srp nd in
    let rrp = Cluster.rrp nd in
    let stats = Srp.stats srp in
    Printf.bprintf b "|n%d r%d m%s a%d h%d s%d o%b d%d q%d v%d" node
      (Srp.current_ring_id srp)
      (String.concat ","
         (Array.to_list (Array.map string_of_int (Srp.members srp))))
      (Srp.my_aru srp) (Srp.highest_seen srp) (Srp.safe_horizon srp)
      (Srp.is_operational srp)
      (Cluster.delivered_at cluster node)
      (Srp.send_queue_length srp)
      stats.Srp.token_visits;
    Array.iteri (fun i f -> Printf.bprintf b " f%d%b" i f) (Rrp.faulty rrp);
    (* Only under reinstatement: probation is a third state the faulty
       flags cannot express. Guarded so pre-existing explorations keep
       their exact fingerprint strings. *)
    if cfg.reinstate then
      for net = 0 to cfg.num_nets - 1 do
        Printf.bprintf b " s%s%d"
          (Rrp.net_state_string rrp ~net)
          (Rrp.flaps rrp ~net)
      done;
    (match Rrp.as_active rrp with
    | Some a ->
      for net = 0 to cfg.num_nets - 1 do
        Printf.bprintf b " p%d" (Active.problem_counter a ~net)
      done
    | None -> ());
    (match Rrp.as_passive rrp with
    | Some p ->
      let tm = Passive.token_monitor p in
      for net = 0 to cfg.num_nets - 1 do
        Printf.bprintf b " t%d" (Monitor.count tm ~net)
      done;
      for sender = 0 to cfg.num_nodes - 1 do
        match Passive.message_monitor p ~sender with
        | Some m ->
          for net = 0 to cfg.num_nets - 1 do
            Printf.bprintf b " c%d" (Monitor.count m ~net)
          done
        | None -> ()
      done
    | None -> ());
    match Rrp.as_active_passive rrp with
    | Some ap ->
      Printf.bprintf b " w%b" (Active_passive.token_copies_pending ap)
    | None -> ()
  done;
  Buffer.contents b

let fingerprint cfg env cluster = fnv64 (state_string cfg env cluster)

let rec take n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest

let path_fingerprints ?prepare cfg ~gap path =
  let campaign = leaf_campaign cfg ~gap path in
  let len = List.length path in
  let fps = Array.make len 0L in
  let probes =
    List.init len (fun i ->
        let k = i + 1 in
        let env = env_string cfg (take k path) in
        ( Vtime.sub (decision_time cfg ~gap k) (Vtime.ns 1),
          fun cluster -> fps.(i) <- fingerprint cfg env cluster ))
  in
  let r =
    Runner.run ~monitor:cfg.monitor ~sim_domains:cfg.sim_domains ?prepare
      ~probes campaign
  in
  (r, Array.to_list fps)

(* --- exhaustive enumeration ------------------------------------------ *)

type stats = {
  alphabet_size : int;
  total_leaves : int;
  leaves_explored : int;
  leaves_pruned : int;
  interior_runs : int;
  distinct_states : int;
}

type found = {
  f_path : Campaign.op list;
  f_campaign : Campaign.t;
  f_result : Runner.result;
}

type outcome = {
  o_gap : Vtime.t;
  o_stats : stats;
  o_found : found option;
}

exception Stop of found

let explore ?prepare cfg =
  if cfg.alphabet = [] then invalid_arg "Explorer.explore: empty alphabet";
  if cfg.depth < 1 then invalid_arg "Explorer.explore: depth < 1";
  let gap = calibrated_gap cfg in
  let alphabet = Array.of_list cfg.alphabet in
  let asize = Array.length alphabet in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  let visited : (int * fingerprint, unit) Hashtbl.t = Hashtbl.create 1024 in
  let explored = ref 0 and pruned = ref 0 and interior = ref 0 in
  (* Re-execute a violating prefix as a standard leaf-form campaign.
     Behaviour is identical up to the violation (same steps, same
     traffic), so the probe-free run reproduces it and the result is
     directly shrinkable and writable as a counterexample. *)
  let stop_with path =
    let campaign = leaf_campaign cfg ~gap path in
    let r =
      Runner.run ~monitor:cfg.monitor ~sim_domains:cfg.sim_domains ?prepare
        campaign
    in
    raise (Stop { f_path = path; f_campaign = campaign; f_result = r })
  in
  (* Fingerprint the state a prefix of length k reaches, 1 ns before
     decision point k, via a truncated run with the end-game disabled. *)
  let run_prefix path k =
    let t_k = decision_time cfg ~gap k in
    let campaign = campaign_of_path cfg ~gap ~duration:t_k path in
    let env = env_string cfg path in
    let fp = ref 0L in
    let probes =
      [ (Vtime.sub t_k (Vtime.ns 1), fun c -> fp := fingerprint cfg env c) ]
    in
    let r =
      Runner.run ~monitor:cfg.monitor ~sim_domains:cfg.sim_domains ?prepare
        ~probes ~end_checks:false campaign
    in
    incr interior;
    (r, !fp)
  in
  let rec expand path k =
    Array.iter
      (fun op ->
        let child = path @ [ op ] in
        let k' = k + 1 in
        let r, fp = run_prefix child k' in
        if r.Runner.violations <> [] then stop_with child;
        if Hashtbl.mem visited (k', fp) then
          pruned := !pruned + pow asize (cfg.depth - k')
        else begin
          Hashtbl.add visited (k', fp) ();
          if k' = cfg.depth then begin
            let campaign = leaf_campaign cfg ~gap child in
            let lr =
              Runner.run ~monitor:cfg.monitor ~sim_domains:cfg.sim_domains
                ?prepare campaign
            in
            incr explored;
            if lr.Runner.violations <> [] then
              raise
                (Stop { f_path = child; f_campaign = campaign; f_result = lr })
          end
          else expand child k'
        end)
      alphabet
  in
  let found = try expand [] 0; None with Stop f -> Some f in
  {
    o_gap = gap;
    o_stats =
      {
        alphabet_size = asize;
        total_leaves = pow asize cfg.depth;
        leaves_explored = !explored;
        leaves_pruned = !pruned;
        interior_runs = !interior;
        distinct_states = Hashtbl.length visited;
      };
    o_found = found;
  }

let to_counterexample ?prepare ?(shrunk = false) cfg campaign =
  let r =
    Runner.run ~monitor:cfg.monitor ~sim_domains:cfg.sim_domains ?prepare
      campaign
  in
  {
    Runner.cx_schema = Runner.schema;
    cx_campaign = campaign;
    cx_monitor = cfg.monitor;
    cx_violation =
      (match r.Runner.violations with [] -> None | v :: _ -> Some v);
    cx_shrunk = shrunk;
    cx_history = Runner.history_json r;
  }

(* --- arbitrary-state perturbation ------------------------------------ *)

type stabilize_report = {
  s_points : int;
  s_perturbations : (Vtime.t * string) list;
  s_operational : bool;
  s_common_ring : bool;
  s_progressed : bool;
  s_violations : Invariant.violation list;
}

let stabilized r =
  r.s_operational && r.s_common_ring && r.s_progressed && r.s_violations = []

(* The perturbation catalog stays inside what the protocol is built to
   absorb: a forged token is either stale (destroyed by the duplicate
   filter) or future-dated with conservative seq/aru skews (adopted,
   then repaired by retransmission — a far-future hop count can force a
   full ring reformation, which is the recovery path under test);
   problem counters and reception-count monitors are overwritten to
   sub-threshold values that the decay / catch-up machinery must wash
   out. Skewing a token's seq *forward* is deliberately excluded: it
   fabricates messages that never existed, which no fail-stop protocol
   can recover from. *)
type perturbation =
  | Forge_token of { node : int; future : bool; aru_back : int }
  | Set_problem of { node : int; net : int; value : int }
  | Skew_monitor of { node : int; net : int; by : int }

let describe = function
  | Forge_token { node; future; aru_back } ->
    Printf.sprintf "forge %s token at node %d (aru -%d)"
      (if future then "far-future" else "stale")
      node aru_back
  | Set_problem { node; net; value } ->
    Printf.sprintf "set problemCounter[net %d] = %d at node %d" net value node
  | Skew_monitor { node; net; by } ->
    Printf.sprintf "inflate token recvCount[net %d] by %d at node %d" net by
      node

let apply_perturbation i cluster p =
  match p with
  | Forge_token { node; future; aru_back } ->
    let srp = Cluster.srp (Cluster.node cluster node) in
    let members = Srp.members srp in
    if Array.length members > 0 && not (Srp.is_crashed srp) then begin
      let tok =
        {
          Token.ring_id = Srp.current_ring_id srp;
          seq = Srp.highest_seen srp;
          rotation = 0;
          hops = (if future then 1_000_000 + i else 1);
          aru = max 0 (Srp.my_aru srp - aru_back);
          aru_setter = members.(0);
          fcc = 0;
          rtr = [];
          ring = members;
        }
      in
      Srp.token_arrived srp tok
    end
  | Set_problem { node; net; value } -> (
    match Rrp.as_active (Cluster.rrp (Cluster.node cluster node)) with
    | Some a -> Active.set_problem_counter a ~net value
    | None -> ())
  | Skew_monitor { node; net; by } -> (
    match Rrp.as_passive (Cluster.rrp (Cluster.node cluster node)) with
    | Some p ->
      let m = Passive.token_monitor p in
      for _ = 1 to by do
        Monitor.note m ~net
      done
    | None -> ())

let stabilize cfg ~points =
  if points < 1 then invalid_arg "Explorer.stabilize: points < 1";
  let gap = Vtime.max (calibrated_gap cfg) (Vtime.ms 10) in
  let recovery = Vtime.ms 400 in
  let duration = Vtime.add (decision_time cfg ~gap points) recovery in
  (* Steady bursts across the whole run, so progress after the last
     perturbation is observable. *)
  let pace = Vtime.ms 20 in
  let bursts =
    List.init (duration / pace) (fun i ->
        (i mod cfg.num_nodes, 200, 2, Vtime.add (Vtime.ms 2) (i * pace)))
  in
  let campaign =
    Campaign.make ~num_nodes:cfg.num_nodes ~num_nets:cfg.num_nets
      ~style:cfg.style ~seed:cfg.seed ~duration ~quiesce:cfg.quiesce
      ~traffic:(Campaign.Bursts bursts) ~wire:cfg.wire
      ~reinstate:cfg.reinstate []
  in
  (* Relaxed monitor: a forged token is a transient fault, and the
     expected recovery path (ring reformation) is a membership change.
     Liveness stays armed with a bound generous enough to cover a full
     token-loss recovery. *)
  let monitor =
    {
      cfg.monitor with
      Invariant.agreement = false;
      membership = false;
      virgin_net = false;
      lag_limit = None;
      condemn_within = None;
      token_gap = Some (Vtime.ms 450);
    }
  in
  let rng = Rng.create ~seed:cfg.seed in
  let active_style =
    match cfg.style with Totem_rrp.Style.Active -> true | _ -> false
  in
  let passive_style =
    match cfg.style with Totem_rrp.Style.Passive -> true | _ -> false
  in
  let threshold = Rrp_config.default.Rrp_config.active_problem_threshold in
  let mthreshold = Rrp_config.default.Rrp_config.passive_monitor_threshold in
  let plan =
    List.init points (fun i ->
        let node = Rng.int rng cfg.num_nodes in
        let p =
          match Rng.int rng 3 with
          | 0 when active_style ->
            Set_problem
              {
                node;
                net = Rng.int rng cfg.num_nets;
                value = Rng.int rng threshold;
              }
          | 0 when passive_style ->
            Skew_monitor
              {
                node;
                net = Rng.int rng cfg.num_nets;
                by = 1 + Rng.int rng (mthreshold - 1);
              }
          | k ->
            Forge_token
              { node; future = k <> 1; aru_back = Rng.int rng 3 }
        in
        (decision_time cfg ~gap i, p))
  in
  let t_last = decision_time cfg ~gap (points - 1) in
  let snapshot = ref 0 in
  let operational = ref false
  and common_ring = ref false
  and progressed = ref false in
  let probes =
    List.mapi
      (fun i (t, p) -> (t, fun cluster -> apply_perturbation i cluster p))
      plan
    @ [
        ( Vtime.add t_last (Vtime.ns 1),
          fun cluster -> snapshot := Cluster.delivered_at cluster 0 );
        ( Vtime.add duration cfg.quiesce,
          fun cluster ->
            let ring0 =
              Srp.current_ring_id (Cluster.srp (Cluster.node cluster 0))
            in
            let ok_op = ref true and ok_ring = ref true in
            for node = 0 to cfg.num_nodes - 1 do
              let srp = Cluster.srp (Cluster.node cluster node) in
              if not (Srp.is_operational srp) then ok_op := false;
              if Srp.current_ring_id srp <> ring0 then ok_ring := false
            done;
            operational := !ok_op;
            common_ring := !ok_ring;
            progressed := Cluster.delivered_at cluster 0 > !snapshot );
      ]
  in
  let r = Runner.run ~monitor ~probes campaign in
  {
    s_points = points;
    s_perturbations = List.map (fun (t, p) -> (t, describe p)) plan;
    s_operational = !operational;
    s_common_ring = !common_ring;
    s_progressed = !progressed;
    s_violations = r.Runner.violations;
  }
