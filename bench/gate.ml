(* Deterministic cost gate over two totem-bench/v1 files.

   Usage:
     gate.exe BASELINE.json CURRENT.json

   Every target of BASELINE must appear in CURRENT with the same
   simulator work — sim_events and the exchange's windows_run,
   windows_batched and windows_widened, compared exactly — and with
   minor-heap words per simulated event within 2% of the baseline.
   These are functions of the code, not of the host: the same build
   processes the same events in the same windows and allocates the same
   words on any machine, so unlike events/sec they need no noise
   margin. An extra event per window moves the event and window counts;
   a hot path that starts allocating moves words per event. Exits 1 on
   any breach, 2 on unreadable input.

   Wired into `dune runtest` as the bench-gate alias (quick fig6 and
   wire against bench/gate_baseline.json). A change that moves a count
   on purpose regenerates the baseline with

     dune build bench/bench_gate.json
     cp _build/default/bench/bench_gate.json bench/gate_baseline.json

   and says why in its change notes. *)

module Json = Totem_chaos.Chaos_json

let words_bound_pct = 2.0

let fail_input fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("gate: " ^ msg);
      exit 2)
    fmt

let targets_of path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> fail_input "%s" msg
  in
  let doc =
    match Json.parse text with
    | Ok doc -> doc
    | Error msg -> fail_input "%s: %s" path msg
  in
  if Json.field doc "schema" <> Some (Json.Str "totem-bench/v1") then
    fail_input "%s: not a totem-bench/v1 file" path;
  match Json.field doc "targets" with
  | Some (Json.Arr targets) ->
    List.map (fun t -> (Json.get_str t "name" path, t)) targets
  | _ -> fail_input "%s: missing targets array" path

(* (label, value) for every exact count of one target; a target with no
   exchange block ran no windows. *)
let counts t path =
  let window name =
    match Json.field t "exchange" with
    | Some ex -> Json.get_int ex name path
    | None -> 0
  in
  [
    ("sim_events", Json.get_int t "sim_events" path);
    ("windows_run", window "windows_run");
    ("windows_batched", window "windows_batched");
    ("windows_widened", window "windows_widened");
  ]

let minor_words_per_event t path =
  let events = Json.get_int t "sim_events" path in
  match Json.field t "gc" with
  | Some gc when events > 0 ->
    Json.get_num gc "minor_words" path /. float_of_int events
  | _ -> fail_input "%s: target without events or gc block" path

let () =
  let base_path, cur_path =
    match List.tl (Array.to_list Sys.argv) with
    | [ a; b ] -> (a, b)
    | _ ->
      prerr_endline "usage: gate.exe BASELINE.json CURRENT.json";
      exit 2
  in
  let base = targets_of base_path and cur = targets_of cur_path in
  let failed = ref false in
  let verdict ok =
    if ok then "ok"
    else begin
      failed := true;
      "CHANGED"
    end
  in
  List.iter
    (fun (name, bt) ->
      match List.assoc_opt name cur with
      | None ->
        Printf.printf "%-8s missing from %s\n" name cur_path;
        failed := true
      | Some ct ->
        List.iter2
          (fun (label, b) (_, c) ->
            Printf.printf "%-8s %-16s %12d -> %12d  %s\n" name label b c
              (verdict (b = c)))
          (counts bt base_path) (counts ct cur_path);
        let b = minor_words_per_event bt base_path in
        let c = minor_words_per_event ct cur_path in
        let delta = (c -. b) /. b *. 100.0 in
        Printf.printf "%-8s %-16s %12.2f -> %12.2f  %+.2f%% (bound %.0f%%)  %s\n"
          name "words/event" b c delta words_bound_pct
          (verdict (Float.abs delta <= words_bound_pct)))
    base;
  if !failed then begin
    print_endline "FAIL: simulator cost moved against the committed baseline";
    exit 1
  end
  else print_endline "PASS: event, window and allocation counts match the baseline"
