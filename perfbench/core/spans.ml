(* Spans recorded from the benchmark's own code around calls into the
   program's public functions. A span's self time is its duration minus
   the time its child spans cover. When tracing is off, [span] is one
   branch and a call. *)

type stat = {
  mutable total : float;
  mutable self : float;
  mutable count : int;
  samples : Samples.Floats.t option;
      (** each span's duration, seconds; kept only for the spans whose
          quantiles are reported, since hook spans number millions *)
}

type frame = { start : float; mutable child : float }

type t = {
  enabled : bool;
  sampled : string list;
  table : (string, stat) Hashtbl.t;
  mutable stack : frame list;
}

let create ?(sampled = []) ~enabled () =
  { enabled; sampled; table = Hashtbl.create 16; stack = [] }

let stat t name =
  match Hashtbl.find_opt t.table name with
  | Some s -> s
  | None ->
    let samples = if List.mem name t.sampled then Some (Samples.Floats.create ()) else None in
    let s = { total = 0.0; self = 0.0; count = 0; samples } in
    Hashtbl.replace t.table name s;
    s

let close t name fr =
  let d = Hostclock.now () -. fr.start in
  (match t.stack with
  | _ :: (parent :: _ as rest) ->
    parent.child <- parent.child +. d;
    t.stack <- rest
  | _ :: [] | [] -> t.stack <- []);
  let s = stat t name in
  s.total <- s.total +. d;
  s.self <- s.self +. (d -. fr.child);
  s.count <- s.count + 1;
  Option.iter (fun a -> Samples.Floats.push a d) s.samples

let span t name f =
  if not t.enabled then f ()
  else begin
    let fr = { start = Hostclock.now (); child = 0.0 } in
    t.stack <- fr :: t.stack;
    match f () with
    | v ->
      close t name fr;
      v
    | exception e ->
      close t name fr;
      raise e
  end

(* [enter]/[leave] bracket a span without allocating a closure, for
   hooks the program calls on its hot path. *)
let enter t =
  if t.enabled then t.stack <- { start = Hostclock.now (); child = 0.0 } :: t.stack

let leave t name =
  if t.enabled then match t.stack with fr :: _ -> close t name fr | [] -> ()

(* Record an interval measured elsewhere as a finished child of the
   innermost open span (or at top level). *)
let add t name d =
  if t.enabled then begin
    (match t.stack with parent :: _ -> parent.child <- parent.child +. d | [] -> ());
    let s = stat t name in
    s.total <- s.total +. d;
    s.self <- s.self +. d;
    s.count <- s.count + 1;
    Option.iter (fun a -> Samples.Floats.push a d) s.samples
  end

let find t name = Hashtbl.find_opt t.table name
