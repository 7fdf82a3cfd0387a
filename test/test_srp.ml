(* Integration tests of the Totem SRP engine over the simulated network
   (unreplicated configuration, so only SRP mechanics are in play). *)

open Util

let start t =
  Cluster.start t.cluster;
  t

let test_total_order_basic () =
  let t = start (make ~style:Style.No_replication ()) in
  submit_n t ~node:1 ~size:500 10;
  submit_n t ~node:2 ~size:500 10;
  run_ms t 500;
  check_delivered_everything t ~expected:20

let test_sender_order_preserved () =
  let t = start (make ~style:Style.No_replication ()) in
  submit_n t ~node:1 ~size:300 20;
  run_ms t 500;
  let seqs = List.filter_map (fun (o, s) -> if o = 1 then Some s else None) (order t 0) in
  Alcotest.(check (list int)) "FIFO per sender" (List.init 20 (fun i -> i + 1)) seqs

let test_self_delivery () =
  let t = start (make ~style:Style.No_replication ()) in
  submit_n t ~node:0 ~size:100 5;
  run_ms t 500;
  let mine = List.filter (fun (o, _) -> o = 0) (order t 0) in
  Alcotest.(check int) "sender delivers own messages" 5 (List.length mine)

let test_large_message_fragmentation () =
  let t = start (make ~style:Style.No_replication ()) in
  (* 40 KB: 29 fragments. *)
  submit t ~node:1 ~size:40_000;
  submit t ~node:2 ~size:100;
  run_ms t 500;
  check_delivered_everything t ~expected:2;
  let stats = Srp.stats (srp_of t 1) in
  Alcotest.(check bool) "multiple packets sent" true (stats.Srp.sent_packets > 20)

let test_retransmission_repairs_loss () =
  let t = start (make ~style:Style.No_replication ~num_nets:1 ()) in
  Cluster.set_network_loss t.cluster 0 0.05;
  submit_n t ~node:1 ~size:800 100;
  submit_n t ~node:3 ~size:800 100;
  run_ms t 3000;
  check_delivered_everything t ~expected:200;
  (* Loss must actually have caused retransmissions for this test to
     mean anything. *)
  let total_retrans =
    List.fold_left
      (fun acc node -> acc + (Srp.stats (srp_of t node)).Srp.retransmissions_served)
      0 [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "retransmissions happened" true (total_retrans > 0)

let test_heavy_loss_still_delivers () =
  let t = start (make ~style:Style.No_replication ~num_nets:1 ~seed:7 ()) in
  Cluster.set_network_loss t.cluster 0 0.25;
  submit_n t ~node:1 ~size:500 50;
  run_ms t 5000;
  check_delivered_everything t ~expected:50

let test_token_loss_recovers () =
  let t = start (make ~style:Style.No_replication ()) in
  submit_n t ~node:1 ~size:500 5;
  run_ms t 300;
  (* Deterministically drop every frame for 50 ms: the token in flight
     dies; token retransmission must revive the ring without a
     membership change. *)
  Cluster.fail_network t.cluster 0;
  run_ms t 50;
  Cluster.heal_network t.cluster 0;
  submit_n t ~node:2 ~size:500 5;
  run_ms t 1000;
  check_delivered_everything t ~expected:10;
  (* Only the initial installation — the outage did not reconfigure. *)
  Alcotest.(check int) "no ring change" 1
    (Srp.stats (srp_of t 0)).Srp.ring_changes;
  let retransmits =
    List.fold_left
      (fun acc n -> acc + (Srp.stats (srp_of t n)).Srp.token_retransmits)
      0 [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool) "token retransmission revived the ring" true
    (retransmits > 0)

let test_duplicate_tokens_ignored () =
  let t = start (make ~style:Style.No_replication ()) in
  run_ms t 300;
  (* Drop the network briefly so several nodes retransmit their last
     token; after healing, the late copies must all be discarded by the
     (ring, hops) duplicate filter — one ring, one token. *)
  Cluster.fail_network t.cluster 0;
  run_ms t 45;
  Cluster.heal_network t.cluster 0;
  run_ms t 1000;
  let stats = Srp.stats (srp_of t 0) in
  Alcotest.(check int) "still the initial ring" 1 stats.Srp.ring_changes;
  Alcotest.(check bool) "ring rotating normally" true
    (stats.Srp.token_visits > 500)

let test_idle_ring_stays_quiet () =
  let t = start (make ~style:Style.No_replication ()) in
  run_ms t 5000;
  Alcotest.(check int) "nothing delivered" 0 (List.length (order t 0));
  Alcotest.(check bool) "token kept rotating" true
    ((Srp.stats (srp_of t 0)).Srp.token_visits > 100)

let test_flow_control_bounds_inflight () =
  let t = start (make ~style:Style.No_replication ()) in
  Workload.saturate t.cluster ~size:1024;
  run_ms t 1000;
  let stats = Srp.stats (srp_of t 0) in
  Alcotest.(check bool) "high throughput" true (stats.Srp.delivered_messages > 5000)

let test_supplier_saturation () =
  let t = start (make ~style:Style.No_replication ()) in
  Workload.saturate_nodes t.cluster ~nodes:[ 0 ] ~size:1024;
  run_ms t 1000;
  let st = Srp.stats (srp_of t 0) in
  Alcotest.(check bool) "node 0 sent a lot" true (st.Srp.sent_messages > 3000);
  Alcotest.(check int) "others sent nothing" 0
    (Srp.stats (srp_of t 1)).Srp.sent_messages

let test_crash_silences_node () =
  let t = start (make ~style:Style.No_replication ()) in
  Cluster.crash_node t.cluster 2;
  submit_n t ~node:2 ~size:100 5;
  run_ms t 2000;
  Alcotest.(check int) "crashed node's messages not delivered" 0
    (List.length (order t 0));
  (* The survivors reformed without node 2. *)
  Alcotest.(check bool) "new ring excludes node 2" true
    (Array.for_all (fun n -> n <> 2) (Srp.members (srp_of t 0)))

let test_cold_start_forms_ring () =
  let t = make ~style:Style.No_replication () in
  Cluster.start_cold t.cluster;
  run_ms t 2000;
  let srp0 = srp_of t 0 in
  Alcotest.(check bool) "operational" true (Srp.is_operational srp0);
  Alcotest.(check int) "all four joined" 4 (Array.length (Srp.members srp0));
  (* And the ring actually carries traffic. *)
  submit_n t ~node:1 ~size:200 5;
  run_ms t 1000;
  check_delivered_everything t ~expected:5

let test_rejoin_after_partition () =
  let t = start (make ~style:Style.No_replication ~num_nets:1 ()) in
  (* Isolate node 3 on the only network: the survivors reform; node 3
     gathers alone. *)
  Cluster.block_recv t.cluster ~node:3 ~net:0;
  Cluster.block_send t.cluster ~node:3 ~net:0;
  run_ms t 2000;
  Alcotest.(check int) "survivors reformed without node 3" 3
    (Array.length (Srp.members (srp_of t 0)));
  (* Heal: node 3 must be re-admitted. *)
  Cluster.heal_network t.cluster 0;
  run_ms t 3000;
  Alcotest.(check int) "node 3 back" 4 (Array.length (Srp.members (srp_of t 0)));
  Alcotest.(check bool) "node 3 operational on same ring" true
    (Srp.current_ring_id (srp_of t 3) = Srp.current_ring_id (srp_of t 0));
  submit_n t ~node:3 ~size:100 3;
  run_ms t 1000;
  Alcotest.(check bool) "traffic from node 3 flows" true
    (List.exists (fun (o, _) -> o = 3) (order t 0))

let test_mixed_sizes_order () =
  let t = start (make ~style:Style.No_replication ~seed:3 ()) in
  Workload.saturate_mixed t.cluster ~sizes:[| 64; 700; 1424; 5000 |];
  run_ms t 500;
  (* Stop offering and let the ring drain, so every node has delivered
     every message: at an arbitrary cut a node may still be a few
     deliveries behind, and total order is a claim about the whole
     sequence. *)
  for node = 0 to 3 do
    Srp.set_supplier (srp_of t node) (fun () -> None)
  done;
  run_ms t 200;
  check_same_total_order t;
  Alcotest.(check bool) "delivered plenty" true (List.length (order t 0) > 500)

let tests =
  [
    Alcotest.test_case "total order, two senders" `Quick test_total_order_basic;
    Alcotest.test_case "per-sender FIFO" `Quick test_sender_order_preserved;
    Alcotest.test_case "self delivery" `Quick test_self_delivery;
    Alcotest.test_case "fragmentation of large messages" `Quick
      test_large_message_fragmentation;
    Alcotest.test_case "retransmission repairs loss" `Quick
      test_retransmission_repairs_loss;
    Alcotest.test_case "25% loss still delivers" `Slow test_heavy_loss_still_delivers;
    Alcotest.test_case "token loss recovers via retransmit" `Quick
      test_token_loss_recovers;
    Alcotest.test_case "duplicate tokens ignored" `Quick test_duplicate_tokens_ignored;
    Alcotest.test_case "idle ring stays quiet" `Quick test_idle_ring_stays_quiet;
    Alcotest.test_case "saturation throughput" `Quick test_flow_control_bounds_inflight;
    Alcotest.test_case "supplier saturates one node" `Quick test_supplier_saturation;
    Alcotest.test_case "node crash reconfigures" `Quick test_crash_silences_node;
    Alcotest.test_case "cold start forms a ring" `Quick test_cold_start_forms_ring;
    Alcotest.test_case "isolate and rejoin" `Slow test_rejoin_after_partition;
    Alcotest.test_case "mixed sizes keep total order" `Quick test_mixed_sizes_order;
  ]
