(* Sample arrays, quantiles and the outage sweep. *)

module Floats = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 64 0.0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
  let clear t = t.n <- 0
end

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the order statistics around [q (n-1)]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let quantile a q = quantile_sorted (sorted a) q
let median a = quantile a 0.5

(* A percentile is supported when at least ten samples lie beyond it. *)
let supported ~samples q = float_of_int samples *. (1.0 -. q) >= 10.0 -. 1e-9

(* The longest interval inside [w0, w1] during which some offered
   message was pending — offered at [due], not yet delivered anywhere
   (first delivery [first], or never when [first = infinity]) — and no
   delivery happened at any node. [deliveries] are every delivery
   instant at every node. All times in the same unit. *)
let outage ~w0 ~w1 ~dues ~firsts ~deliveries =
  let dues = Array.copy dues and firsts = Array.copy firsts in
  let deliveries = Array.copy deliveries in
  Array.sort Float.compare dues;
  Array.sort Float.compare firsts;
  Array.sort Float.compare deliveries;
  (* pending(t) = #{due <= t} - #{first <= t}. *)
  let nd = Array.length dues and nf = Array.length firsts in
  let nv = Array.length deliveries in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < nd && dues.(!i) <= w0 do incr i done;
  while !j < nf && firsts.(!j) <= w0 do incr j done;
  while !k < nv && deliveries.(!k) <= w0 do incr k done;
  let pending = ref (!i - !j) in
  let run_start = ref (if !pending > 0 then w0 else nan) in
  let best = ref 0.0 in
  let close_at t =
    if not (Float.is_nan !run_start) then best := Float.max !best (t -. !run_start)
  in
  let continue = ref true in
  while !continue do
    let td = if !i < nd then dues.(!i) else infinity in
    let tv = if !k < nv then deliveries.(!k) else infinity in
    let t = Float.min td tv in
    if t > w1 || t = infinity then continue := false
    else if tv <= td then begin
      (* A delivery: ends the current run; first deliveries at this
         instant retire their messages. *)
      close_at t;
      incr k;
      while !j < nf && firsts.(!j) <= t do
        decr pending;
        incr j
      done;
      run_start := if !pending > 0 then t else nan
    end
    else begin
      incr pending;
      incr i;
      if Float.is_nan !run_start then run_start := t
    end
  done;
  close_at w1;
  !best
