type 'a entry = {
  time : Vtime.t;
  tie : int;
  value : 'a;
  mutable dead : bool;
}

type handle = H : 'a entry -> handle

type 'a t = {
  buckets : 'a entry list array;
  mask : int;
  shift : int;
  mutable live : int;
  mutable dead_count : int;
  (* The earliest live entry, or [None] when unknown (empty, or the
     cached minimum was popped/cancelled). Recomputed lazily by a full
     bucket scan; the wheel holds tens of timers, so the scan is cheap
     and rare relative to push/cancel traffic. *)
  mutable cached_min : 'a entry option;
  (* Flat lower bound on the earliest live time ([Vtime.never] when
     empty): exact while [cached_min] is valid, and never above the
     true minimum while it is not (a popped or cancelled minimum leaves
     its own — earlier — time behind until [min_entry] recomputes). The
     exchange's per-window scans read this as one load and tolerate the
     conservative staleness. *)
  mutable min_time : Vtime.t;
}

let default_shift = 17 (* 131 us buckets: well under any protocol timeout *)
let default_buckets = 64

let create ?(shift = default_shift) ?(buckets = default_buckets) () =
  if buckets <= 0 || buckets land (buckets - 1) <> 0 then
    invalid_arg "Timer_wheel.create: buckets must be a positive power of two";
  {
    buckets = Array.make buckets [];
    mask = buckets - 1;
    shift;
    live = 0;
    dead_count = 0;
    cached_min = None;
    min_time = Vtime.never;
  }

let length t = t.live

let bucket_of t time = (time lsr t.shift) land t.mask

let precedes a b =
  a.time < b.time || (a.time = b.time && a.tie < b.tie)

(* Physically drop dead entries once they outnumber the live ones, so
   cancel churn cannot grow the buckets without bound. *)
let sweep t =
  for i = 0 to t.mask do
    t.buckets.(i) <- List.filter (fun e -> not e.dead) t.buckets.(i)
  done;
  t.dead_count <- 0

let push t ~time ~tie value =
  let entry = { time; tie; value; dead = false } in
  let b = bucket_of t time in
  t.buckets.(b) <- entry :: t.buckets.(b);
  t.live <- t.live + 1;
  (match t.cached_min with
  | Some m when precedes m entry -> ()
  | Some _ ->
    t.cached_min <- Some entry;
    t.min_time <- time
  | None ->
    if t.live = 1 then begin
      t.cached_min <- Some entry;
      t.min_time <- time
    end
    else if Vtime.(time < t.min_time) then t.min_time <- time);
  H entry

let cancel t (H entry) =
  if entry.dead then false
  else begin
    entry.dead <- true;
    t.live <- t.live - 1;
    t.dead_count <- t.dead_count + 1;
    (match t.cached_min with
    | Some m when m.time = entry.time && m.tie = entry.tie ->
      t.cached_min <- None
    | _ -> ());
    if t.dead_count > t.live && t.dead_count > 32 then sweep t;
    true
  end

(* The earliest live entry of [bucket], or [best] if none precedes it. *)
let rec earliest_live bucket best =
  match bucket with
  | [] -> best
  | e :: rest ->
    let best =
      match best with
      | Some b when e.dead || precedes b e -> best
      | _ when e.dead -> best
      | _ -> Some e
    in
    earliest_live rest best

let min_entry t =
  match t.cached_min with
  | Some m as cached when not m.dead -> cached
  | _ ->
    if t.live = 0 then begin
      t.min_time <- Vtime.never;
      None
    end
    else begin
      let best = ref None in
      for i = 0 to t.mask do
        best := earliest_live t.buckets.(i) !best
      done;
      t.cached_min <- !best;
      t.min_time <- (match !best with None -> Vtime.never | Some e -> e.time);
      !best
    end

(* Allocation-free once the minimum is cached: the scheduler's pop
   loop runs these once per event. *)
let min_live_time t =
  match min_entry t with None -> Vtime.never | Some e -> e.time

let min_tie t = match t.cached_min with Some e -> e.tie | None -> max_int

(* One flat load: see [min_time]. *)
let[@inline] peek_time_raw t = t.min_time

let take_min t =
  match t.cached_min with
  | Some e ->
    let b = bucket_of t e.time in
    t.buckets.(b) <- List.filter (fun x -> x != e) t.buckets.(b);
    e.dead <- true;
    t.live <- t.live - 1;
    t.cached_min <- None;
    e.value
  | None -> invalid_arg "Timer_wheel.take_min: no live minimum"

let peek_key t =
  match min_entry t with None -> None | Some e -> Some (e.time, e.tie)

let peek_time t = Option.map fst (peek_key t)

let pop_min t =
  let time = min_live_time t in
  if time = Vtime.never then None else Some (time, take_min t)
