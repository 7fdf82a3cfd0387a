(* perfbench: one workload, one seed, a fixed measuring time; prints the
   result as one JSON object on the last line of standard output and
   exits non-zero when an output check failed. *)

let workloads =
  Totem_perfbench.
    [
      { Harness.name = "saturate"; rep = Saturate.rep };
      { Harness.name = "gray-soak"; rep = Soak.rep };
      { Harness.name = "mc-explore"; rep = Explore.rep };
    ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> (match int_of_string_opt v with Some n -> seed := n | None -> usage ()); parse rest
    | "--seconds" :: v :: rest -> (match float_of_string_opt v with Some s -> seconds := s | None -> usage ()); parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.find_opt (fun w -> w.Totem_perfbench.Harness.name = !workload) workloads with
  | None ->
    Printf.eprintf "unknown workload %S\n" !workload;
    exit 2
  | Some w ->
    let o = Totem_perfbench.Harness.run w ~seed:!seed ~seconds:!seconds ~trace:!trace in
    List.iter print_endline o.Totem_perfbench.Harness.log;
    print_endline (Totem_perfbench.Harness.result_line o);
    exit (if o.Totem_perfbench.Harness.correct then 0 else 1)
