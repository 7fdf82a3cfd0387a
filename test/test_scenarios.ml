(* The interleaving scenarios of Figs. 1 and 3, exercised by injecting
   frames directly into a replication layer (no ring behind it, so each
   arrival order can be staged exactly).

   Fig. 1: with two networks and per-network FIFO, the four copies of
   two consecutive units can arrive in any of six interleavings; none
   may trigger a retransmission or deliver a token early.

   Fig. 3: with passive replication a token can overtake a message sent
   before it (scenario 1) or a message can overtake an earlier message
   (scenario 2); the token buffer absorbs both. *)

module Sim = Totem_engine.Sim
module Vtime = Totem_engine.Vtime
module Timer = Totem_engine.Timer
module Fabric = Totem_net.Fabric
module Rrp = Totem_rrp.Rrp
module Style = Totem_rrp.Style
module Wire = Totem_srp.Wire
module Token = Totem_srp.Token
module Message = Totem_srp.Message
module Const = Totem_srp.Const

type harness = {
  sim : Sim.t;
  rrp : Rrp.t;
  mutable data_up : int list;  (* seqs, oldest first *)
  mutable tokens_up : int list;  (* hops, oldest first *)
  aru : int ref;
}

let const = Const.default

let make_harness style =
  let sim = Sim.create () in
  let num_nets = match style with Style.Active_passive _ -> 3 | _ -> 2 in
  let fabric = Fabric.create sim ~parts:[| sim; sim |] ~num_nets () in
  let rrp =
    Rrp.create sim ~fabric ~node:0 ~const ~config:Totem_rrp.Rrp_config.default
      ~style ()
  in
  let h = { sim; rrp; data_up = []; tokens_up = []; aru = ref 0 } in
  Rrp.connect rrp
    ~deliver_data:(fun p -> h.data_up <- h.data_up @ [ p.Wire.seq ])
    ~deliver_token:(fun tok -> h.tokens_up <- h.tokens_up @ [ tok.Token.hops ])
    ~deliver_join:(fun _ -> ())
    ~deliver_probe:(fun _ -> ())
    ~deliver_commit:(fun _ -> ())
    ~my_aru:(fun () -> !(h.aru))
    ~my_ring_id:(fun () -> 1)
    ~on_fault_report:(fun _ -> ());
  h

let packet ~seq =
  {
    Wire.ring_id = 1;
    seq;
    sender = 1;
    elements =
      [ { Wire.message = Message.make ~origin:1 ~app_seq:seq ~size:64 (); fragment = None } ];
  }

let token ~hops =
  { (Token.initial ~ring:[| 0; 1 |] ~ring_id:1) with Token.hops; seq = hops }

let inject_data h ~net ~seq =
  Rrp.frame_received h.rrp ~net (Wire.data_frame const ~src:1 (packet ~seq))

let inject_token h ~net ~hops =
  Rrp.frame_received h.rrp ~net (Wire.token_frame const ~src:1 (token ~hops))

(* All six interleavings of the copies of units u1 and u2 over networks
   x=0 and y=1, respecting per-network FIFO (Fig. 1). *)
let fig1_interleavings =
  [
    (* (unit, net) in arrival order; u1 before u2 on each net. *)
    [ (1, 0); (1, 1); (2, 0); (2, 1) ];
    [ (1, 0); (1, 1); (2, 1); (2, 0) ];
    [ (1, 0); (2, 0); (1, 1); (2, 1) ];
    [ (1, 1); (1, 0); (2, 0); (2, 1) ];
    [ (1, 1); (1, 0); (2, 1); (2, 0) ];
    [ (1, 1); (2, 1); (1, 0); (2, 0) ];
  ]

(* Messages under active replication: every scenario results in both
   arrivals being handed up (the SRP's filter destroys the duplicate,
   A1) and never disturbs the token machinery. *)
let test_fig1_messages_active () =
  List.iteri
    (fun i order ->
      let h = make_harness Style.Active in
      List.iter (fun (u, net) -> inject_data h ~net ~seq:u) order;
      Sim.run_until h.sim (Vtime.ms 1);
      let count u = List.length (List.filter (( = ) u) h.data_up) in
      Alcotest.(check int) (Printf.sprintf "scenario %d: u1 copies up" (i + 1)) 2 (count 1);
      Alcotest.(check int) (Printf.sprintf "scenario %d: u2 copies up" (i + 1)) 2 (count 2))
    fig1_interleavings

(* Tokens under active replication: a token is passed up exactly when
   its last copy arrives, so every interleaving where a token's copies
   are split around other traffic still delivers it exactly once and
   only after both copies (A2/A3). *)
let test_fig1_tokens_active () =
  (* Only interleavings 1, 2 and 4 can occur for two *tokens* on a real
     ring (t2 exists only after t1 was forwarded), but the receiver
     logic must be safe for all six. *)
  List.iteri
    (fun i order ->
      let h = make_harness Style.Active in
      List.iter (fun (u, net) -> inject_token h ~net ~hops:u) order;
      Sim.run_until h.sim (Vtime.ms 1);
      (* In every interleaving the newest token (t2) completes on both
         networks, so it is delivered exactly once; t1 is delivered iff
         both its copies arrived before any t2 copy. *)
      let t2 = List.length (List.filter (( = ) 2) h.tokens_up) in
      Alcotest.(check int) (Printf.sprintf "scenario %d: t2 exactly once" (i + 1)) 1 t2;
      let t1_complete_first =
        match order with (1, a) :: (1, b) :: _ -> a <> b | _ -> false
      in
      let t1 = List.length (List.filter (( = ) 1) h.tokens_up) in
      Alcotest.(check int)
        (Printf.sprintf "scenario %d: t1 iff completed first" (i + 1))
        (if t1_complete_first then 1 else 0)
        t1)
    fig1_interleavings

(* A message copy and the token that follows it (active): the token
   must never be passed up before the message copies on the non-faulty
   networks have been handed up — because per-network FIFO means each
   net's token copy arrives after that net's message copy (A2). *)
let test_active_token_after_messages () =
  let orders =
    [
      [ `D 0; `D 1; `T 0; `T 1 ];
      [ `D 0; `T 0; `D 1; `T 1 ];
      [ `D 1; `D 0; `T 0; `T 1 ];
      [ `D 1; `T 1; `D 0; `T 0 ];
    ]
  in
  List.iteri
    (fun i order ->
      let h = make_harness Style.Active in
      List.iter
        (function
          | `D net -> inject_data h ~net ~seq:1
          | `T net -> inject_token h ~net ~hops:1)
        order;
      Sim.run_until h.sim (Vtime.ms 1);
      Alcotest.(check (list int))
        (Printf.sprintf "order %d: token delivered once, after data" (i + 1))
        [ 1 ] h.tokens_up;
      Alcotest.(check bool)
        (Printf.sprintf "order %d: data up before token" (i + 1))
        true
        (List.length h.data_up = 2))
    orders

(* Active: if one copy never arrives, the token timer delivers the
   token anyway (A4). *)
let test_active_token_timeout_delivers () =
  let h = make_harness Style.Active in
  inject_token h ~net:0 ~hops:1;
  Sim.run_until h.sim (Vtime.ms 1);
  Alcotest.(check (list int)) "held while a copy is outstanding" [] h.tokens_up;
  Sim.run_until h.sim (Vtime.ms 3);
  Alcotest.(check (list int)) "released by the timer" [ 1 ] h.tokens_up;
  (* The late copy arriving after expiry re-delivers; the SRP's
     duplicate filter handles it (paper Sec. 2). *)
  inject_token h ~net:1 ~hops:1;
  Alcotest.(check (list int)) "late copy re-delivered for SRP to filter"
    [ 1; 1 ] h.tokens_up

(* Fig. 3 scenario 1: the token overtakes message m1 on another
   network; it waits in the token buffer until m1 arrives (P1). *)
let test_fig3_scenario1 () =
  let h = make_harness Style.Passive in
  (* Token covering seq 1 arrives while m1 is still in flight. *)
  inject_token h ~net:1 ~hops:1;
  Alcotest.(check (list int)) "token buffered" [] h.tokens_up;
  (* m1 arrives: the fast path releases the token immediately. *)
  h.aru := 1;
  inject_data h ~net:0 ~seq:1;
  Alcotest.(check (list int)) "released by the arriving message" [ 1 ] h.tokens_up;
  Alcotest.(check (list int)) "message up first" [ 1 ] h.data_up

(* Fig. 3 scenario 2: a later message overtakes an earlier one; the
   token covering both waits for the stragglers, then the timer-less
   fast path fires on the last arrival. *)
let test_fig3_scenario2 () =
  let h = make_harness Style.Passive in
  inject_data h ~net:1 ~seq:2;
  inject_token h ~net:0 ~hops:2;
  Alcotest.(check (list int)) "token waits for m1" [] h.tokens_up;
  h.aru := 2;
  inject_data h ~net:0 ~seq:1;
  Alcotest.(check (list int)) "token released" [ 2 ] h.tokens_up

(* Passive: the 10 ms token timer guarantees progress when the missing
   message never arrives (P3). *)
let test_passive_timer_progress () =
  let h = make_harness Style.Passive in
  inject_token h ~net:0 ~hops:3;
  Sim.run_until h.sim (Vtime.ms 9);
  Alcotest.(check (list int)) "still buffered" [] h.tokens_up;
  Sim.run_until h.sim (Vtime.ms 11);
  Alcotest.(check (list int)) "released at the 10 ms timeout" [ 3 ] h.tokens_up

(* Passive: a token for a newer ring is never held against the old
   ring's aru. *)
let test_passive_foreign_ring_token_passes () =
  let h = make_harness Style.Passive in
  let foreign = { (token ~hops:0) with Token.ring_id = 99; seq = 1000 } in
  Rrp.frame_received h.rrp ~net:0 (Wire.token_frame const ~src:1 foreign);
  Alcotest.(check (list int)) "passed straight up" [ 0 ] h.tokens_up

(* Active-passive: the second stage passes the token at K copies. *)
let test_active_passive_k_copies () =
  let h = make_harness (Style.Active_passive 2) in
  inject_token h ~net:0 ~hops:1;
  Alcotest.(check (list int)) "one copy is not enough" [] h.tokens_up;
  inject_token h ~net:2 ~hops:1;
  Alcotest.(check (list int)) "K=2 copies deliver" [ 1 ] h.tokens_up;
  (* A third copy is not possible (only K sent), and the same instance
     from a retransmission is ignored once delivered. *)
  inject_token h ~net:1 ~hops:1;
  Alcotest.(check (list int)) "no redelivery" [ 1 ] h.tokens_up

(* Active-passive: timeout releases an incomplete token. *)
let test_active_passive_timeout () =
  let h = make_harness (Style.Active_passive 2) in
  inject_token h ~net:1 ~hops:5;
  Sim.run_until h.sim (Vtime.ms 3);
  Alcotest.(check (list int)) "released by timer" [ 5 ] h.tokens_up

let tests =
  [
    Alcotest.test_case "Fig. 1: six interleavings, messages" `Quick
      test_fig1_messages_active;
    Alcotest.test_case "Fig. 1: six interleavings, tokens" `Quick
      test_fig1_tokens_active;
    Alcotest.test_case "active: token after its messages (A2)" `Quick
      test_active_token_after_messages;
    Alcotest.test_case "active: timer releases incomplete token (A4)" `Quick
      test_active_token_timeout_delivers;
    Alcotest.test_case "Fig. 3 scenario 1: token overtakes message" `Quick
      test_fig3_scenario1;
    Alcotest.test_case "Fig. 3 scenario 2: message overtakes message" `Quick
      test_fig3_scenario2;
    Alcotest.test_case "passive: 10 ms timer progress (P3)" `Quick
      test_passive_timer_progress;
    Alcotest.test_case "passive: foreign-ring token passes" `Quick
      test_passive_foreign_ring_token_passes;
    Alcotest.test_case "active-passive: K copies deliver" `Quick
      test_active_passive_k_copies;
    Alcotest.test_case "active-passive: timeout" `Quick test_active_passive_timeout;
  ]
