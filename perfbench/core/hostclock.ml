(* Host time: the monotonic clock, in seconds. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Consecutive laps of host time, each appended to the array it is
   charged to: a repetition's set-up and measured window are recorded as
   short segments that recur identically in every repetition. *)
type laps = { mutable last : float }

let laps () = { last = now () }

let lap l dst =
  let n = now () in
  Samples.Floats.push dst (n -. l.last);
  l.last <- n

(* The calibration kernel: a small discrete-event loop of its own — a
   binary heap of timed closures, each event allocating a short-lived
   payload and scheduling successors — plus hash-table lookups. It uses
   nothing from the program under test. Timed between repetitions, it
   tracks how fast the host is running at the moment. Returns host
   seconds. *)
type ev = { at : int; seq : int; run : unit -> unit }

let kernel_events = 6_000

let kernel () =
  let t0 = now () in
  let heap = ref (Array.make 1024 { at = 0; seq = 0; run = ignore }) in
  let size = ref 0 and seq = ref 0 and clock = ref 0 in
  let lt a b = a.at < b.at || (a.at = b.at && a.seq < b.seq) in
  let push at run =
    if !size = Array.length !heap then begin
      let h = Array.make (2 * !size) !heap.(0) in
      Array.blit !heap 0 h 0 !size;
      heap := h
    end;
    incr seq;
    let h = !heap in
    let e = { at; seq = !seq; run } in
    let i = ref !size in
    incr size;
    while !i > 0 && lt e h.((!i - 1) / 2) do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- e
  in
  let pop () =
    let h = !heap in
    let top = h.(0) in
    decr size;
    let last = h.(!size) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && lt h.(l + 1) h.(l) then l + 1 else l in
        if lt h.(c) last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else continue := false
      end
    done;
    h.(!i) <- last;
    top
  in
  let table = Hashtbl.create 1024 in
  let rng = ref 12345 in
  let next () =
    rng := (!rng * 1103515245 + 12345) land 0x3FFF_FFFF;
    !rng
  in
  let events = ref 0 in
  let rec handler node () =
    incr events;
    let payload = List.init 6 (fun k -> (node, k, !clock)) in
    Hashtbl.replace table ((node * 1024) + (!events land 1023)) payload;
    (match Hashtbl.find_opt table ((node * 1024) + (next () land 1023)) with
    | Some l -> ignore (Sys.opaque_identity (List.length l))
    | None -> ());
    if !events < kernel_events then
      push (!clock + 1 + (next () land 1023)) (handler ((node + 1) land 255))
  in
  for node = 0 to 255 do
    push node (handler node)
  done;
  while !size > 0 do
    let e = pop () in
    clock := e.at;
    e.run ()
  done;
  now () -. t0
