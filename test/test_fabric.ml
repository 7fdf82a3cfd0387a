open Totem_engine
open Totem_net

(* A standalone fabric: every node's partition is the one simulator, and
   tests flush the outboxes by hand where the exchange would. *)
let make ?(num_nodes = 3) ?(num_nets = 2) () =
  let sim = Sim.create () in
  let fabric = Fabric.create sim ~parts:(Array.make num_nodes sim) ~num_nets () in
  let log = ref [] in
  for node = 0 to num_nodes - 1 do
    Fabric.attach_node fabric ~node (fun ~net frame ->
        log := (node, net, frame.Frame.src) :: !log)
  done;
  (sim, fabric, log)

let test_networks_isolated () =
  let sim, fabric, log = make () in
  Fabric.broadcast fabric ~net:0 (Frame.make ~src:0 ~payload_bytes:10 (Frame.Opaque "a"));
  Fabric.flush_outboxes fabric;
  Sim.run_until sim (Vtime.ms 1);
  List.iter
    (fun (_, net, _) -> Alcotest.(check int) "only net 0" 0 net)
    !log;
  Alcotest.(check int) "two receivers" 2 (List.length !log)

let test_handler_reports_network () =
  let sim, fabric, log = make () in
  Fabric.broadcast fabric ~net:1 (Frame.make ~src:2 ~payload_bytes:10 (Frame.Opaque "b"));
  Fabric.flush_outboxes fabric;
  Sim.run_until sim (Vtime.ms 1);
  List.iter
    (fun (node, net, src) ->
      Alcotest.(check int) "net id" 1 net;
      Alcotest.(check int) "src" 2 src;
      Alcotest.(check bool) "not the sender" true (node <> 2))
    !log

let test_unicast_across_fabric () =
  let sim, fabric, log = make () in
  Fabric.unicast fabric ~net:1 ~dst:1 (Frame.make ~src:0 ~payload_bytes:5 (Frame.Opaque "c"));
  Fabric.flush_outboxes fabric;
  Sim.run_until sim (Vtime.ms 1);
  Alcotest.(check (list (triple int int int))) "one delivery" [ (1, 1, 0) ] !log

let test_per_network_fault_state () =
  let sim, fabric, log = make () in
  Fault.set_down (Fabric.fault fabric 0) true;
  Fabric.broadcast fabric ~net:0 (Frame.make ~src:0 ~payload_bytes:1 (Frame.Opaque ""));
  Fabric.broadcast fabric ~net:1 (Frame.make ~src:0 ~payload_bytes:1 (Frame.Opaque ""));
  Fabric.flush_outboxes fabric;
  Sim.run_until sim (Vtime.ms 1);
  List.iter (fun (_, net, _) -> Alcotest.(check int) "net1 only" 1 net) !log;
  Alcotest.(check int) "net1 deliveries" 2 (List.length !log)

let test_validation () =
  let sim = Sim.create () in
  Alcotest.check_raises "no nodes" (Invalid_argument "Fabric.create: need at least one node")
    (fun () -> ignore (Fabric.create sim ~parts:[||] ~num_nets:1 ()));
  Alcotest.check_raises "no nets"
    (Invalid_argument "Fabric.create: need at least one network") (fun () ->
      ignore (Fabric.create sim ~parts:[| sim |] ~num_nets:0 ()));
  Alcotest.check_raises "configs mismatch"
    (Invalid_argument "Fabric.create: configs length mismatch") (fun () ->
      ignore
        (Fabric.create sim ~parts:[| sim |] ~num_nets:2
           ~configs:[| Network.default_config |] ()))

let test_heterogeneous_configs () =
  let sim = Sim.create () in
  let slow = { Network.default_config with Network.bandwidth_bps = 10_000_000 } in
  let fabric =
    Fabric.create sim ~parts:[| sim; sim |] ~num_nets:2
      ~configs:[| Network.default_config; slow |] ()
  in
  Alcotest.(check int) "net0 fast" 100_000_000
    (Network.config (Fabric.network fabric 0)).Network.bandwidth_bps;
  Alcotest.(check int) "net1 slow" 10_000_000
    (Network.config (Fabric.network fabric 1)).Network.bandwidth_bps

(* The wire-encoder memo: the same physical frame broadcast on every
   network runs the encoder once; a new frame value (even an equal one)
   re-encodes; ~memoize:false restores per-call invocation. The encoder
   runs when the barrier flush replays the sends. *)
let test_wire_encoder_memoized () =
  let sim, fabric, log = make () in
  let calls = ref 0 in
  Fabric.set_wire_encoder fabric (fun frame ->
      incr calls;
      frame);
  let frame = Frame.make ~src:0 ~payload_bytes:10 (Frame.Opaque "a") in
  Fabric.broadcast fabric ~net:0 frame;
  Fabric.broadcast fabric ~net:1 frame;
  Fabric.unicast fabric ~net:0 ~dst:1 frame;
  Fabric.flush_outboxes fabric;
  Alcotest.(check int) "one encode for the whole fan-out" 1 !calls;
  let frame' = Frame.make ~src:0 ~payload_bytes:10 (Frame.Opaque "a") in
  Fabric.broadcast fabric ~net:0 frame';
  Fabric.flush_outboxes fabric;
  Alcotest.(check int) "a fresh frame value re-encodes" 2 !calls;
  Fabric.set_wire_encoder fabric ~memoize:false (fun frame ->
      incr calls;
      frame);
  Fabric.broadcast fabric ~net:0 frame';
  Fabric.broadcast fabric ~net:1 frame';
  Fabric.flush_outboxes fabric;
  Alcotest.(check int) "unmemoized encodes per call" 4 !calls;
  Sim.run_until sim (Vtime.ms 1);
  Alcotest.(check bool) "frames still delivered" true (List.length !log > 0)

let tests =
  [
    Alcotest.test_case "networks are isolated" `Quick test_networks_isolated;
    Alcotest.test_case "wire encoder memoized per frame" `Quick
      test_wire_encoder_memoized;
    Alcotest.test_case "handler told the network" `Quick test_handler_reports_network;
    Alcotest.test_case "unicast" `Quick test_unicast_across_fabric;
    Alcotest.test_case "per-network fault state" `Quick test_per_network_fault_state;
    Alcotest.test_case "construction validation" `Quick test_validation;
    Alcotest.test_case "heterogeneous networks" `Quick test_heterogeneous_configs;
  ]
