open Totem_perfbench

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* --- the delivery checker --------------------------------------------- *)

(* Three nodes, each origin offering [n] messages; [deliver] feeds one
   node's delivery order. *)
let checker_with ~n orders =
  let c = Checker.create ~nodes:3 in
  for origin = 0 to 2 do
    for app_seq = 1 to n do
      Checker.offer c ~origin ~app_seq
    done
  done;
  List.iteri
    (fun node order ->
      List.iter (fun (origin, app_seq) -> Checker.deliver c ~node ~origin ~app_seq) order)
    orders;
  Checker.finish ~complete:true c;
  c

let agreed = [ (0, 1); (1, 1); (2, 1); (0, 2); (1, 2); (2, 2) ]
let without x l = List.filter (fun y -> y <> x) l

let has pred c = List.exists pred (Checker.failures c)

let () =
  let clean = checker_with ~n:2 [ agreed; agreed; agreed ] in
  expect "checker: identical agreed orders pass"
    (Checker.failed clean = 0 && Checker.attempted clean = 18);
  let dropped = checker_with ~n:2 [ agreed; without (1, 2) agreed; agreed ] in
  expect "checker: a dropped delivery is flagged"
    (has (function Checker.Dropped { node = 1; origin = 1; app_seq = 2 } -> true | _ -> false)
       dropped);
  let dup = checker_with ~n:2 [ agreed; agreed @ [ (2, 2) ]; agreed ] in
  expect "checker: a duplicated delivery is flagged"
    (has (function Checker.Duplicate { node = 1; origin = 2; app_seq = 2 } -> true | _ -> false)
       dup);
  let swapped = [ (0, 1); (1, 1); (0, 2); (2, 1); (1, 2); (2, 2) ] in
  let reordered = checker_with ~n:2 [ agreed; agreed; swapped ] in
  expect "checker: a reordered delivery is flagged"
    (has (function Checker.Diverged { node = 2; _ } -> true | _ -> false) reordered);
  let fifo = checker_with ~n:2 [ agreed; [ (0, 2); (1, 1); (2, 1); (0, 1); (1, 2); (2, 2) ]; agreed ] in
  expect "checker: a per-origin reordering is flagged"
    (has (function Checker.Reordered { node = 1; origin = 0; _ } -> true | _ -> false) fifo);
  let lost_everywhere = checker_with ~n:3 [ agreed; agreed; agreed ] in
  expect "checker: an offered message nobody delivered is flagged"
    (has (function Checker.Dropped { origin = 0; app_seq = 3; _ } -> true | _ -> false)
       lost_everywhere);
  (* A node that crashed and rejoined resumes mid-order. *)
  let c = Checker.create ~nodes:2 in
  for s = 1 to 4 do Checker.offer c ~origin:0 ~app_seq:s done;
  List.iter (fun s -> Checker.deliver c ~node:0 ~origin:0 ~app_seq:s) [ 1; 2; 3; 4 ];
  Checker.deliver c ~node:1 ~origin:0 ~app_seq:1;
  Checker.rejoin c ~node:1;
  List.iter (fun s -> Checker.deliver c ~node:1 ~origin:0 ~app_seq:s) [ 3; 4 ];
  Checker.finish ~complete:true c;
  expect "checker: a rejoined node may resume mid-order" (Checker.failed c = 0)

(* --- outage sweep ----------------------------------------------------- *)

let () =
  let o =
    Samples.outage ~w0:0.0 ~w1:100.0 ~dues:[| 10.0; 50.0 |] ~firsts:[| 20.0; 90.0 |]
      ~deliveries:[| 20.0; 21.0; 90.0 |]
  in
  expect "outage: longest pending interval without deliveries" (o = 40.0)

(* --- traced and untraced repetitions agree ---------------------------- *)

let workloads =
  [
    { Harness.name = "saturate"; rep = Saturate.rep };
    { Harness.name = "gray-soak"; rep = Soak.rep };
    { Harness.name = "mc-explore"; rep = Explore.rep };
  ]

let () =
  List.iter
    (fun (w : Harness.workload) ->
      let plain =
        w.rep ~seed:3 ~spans:(Spans.create ~enabled:false ()) ~traced:false ~check:true
      in
      let spans = Spans.create ~enabled:true () in
      let traced = w.rep ~seed:3 ~spans ~traced:true ~check:true in
      expect (w.name ^ ": traced fingerprint equals untraced")
        (plain.Rep.fingerprint = traced.Rep.fingerprint);
      expect (w.name ^ ": no failed operation") (plain.Rep.failed = 0 && plain.Rep.attempted > 0))
    workloads

(* --- metric names and units against BENCHMARK.json -------------------- *)

module J = Totem_chaos.Chaos_json

let valid_name s =
  String.length s >= 1 && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let valid_unit s =
  String.length s >= 1 && String.length s <= 16
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

let declared bench key =
  List.map
    (fun m -> (J.get_str m "name" key, J.get_str m "unit" key))
    (J.get_list bench key "BENCHMARK.json")

let () =
  let bench =
    match J.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) with
    | Ok v -> v
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let workload_names =
    List.map (fun w -> J.get_str w "name" "workloads") (J.get_list bench "workloads" "")
  in
  expect "BENCHMARK.json lists the harness's workloads"
    (List.sort compare workload_names
    = List.sort compare (List.map (fun (w : Harness.workload) -> w.name) workloads));
  List.iter
    (fun (w : Harness.workload) ->
      List.iter
        (fun (trace, key) ->
          let o = Harness.run w ~seed:5 ~seconds:0.0 ~trace in
          let line = Harness.result_line o in
          let parsed = J.parse line in
          let printed =
            match parsed with
            | Ok (J.Obj [ ("correct", J.Bool true); ("attempted", J.Num _); ("failed", J.Num 0.0);
                          ("metrics", J.Obj ms) ]) ->
              List.map
                (fun (name, v) ->
                  ( name,
                    (match J.field v "unit" with Some (J.Str u) -> u | _ -> ""),
                    match J.field v "value" with Some (J.Num x) -> Float.is_finite x | _ -> false ))
                ms
            | _ -> []
          in
          let want = declared bench key in
          let label = Printf.sprintf "%s trace=%b" w.name trace in
          expect (label ^ ": result line has the four keys and a correct run") (printed <> []);
          expect (label ^ ": every " ^ key ^ " metric printed with its unit")
            (List.for_all
               (fun (name, unit) -> List.exists (fun (n, u, ok) -> n = name && u = unit && ok) printed)
               want);
          expect (label ^ ": nothing printed beyond " ^ key)
            (List.length printed = List.length want);
          expect (label ^ ": names and units are valid")
            (List.for_all (fun (n, u, _) -> valid_name n && valid_unit u) printed))
        [ (false, "end_to_end"); (true, "per_layer") ])
    workloads;
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
