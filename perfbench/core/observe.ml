(* One cluster run as the benchmark sees it: what was offered when, and
   every agreed delivery. Feeds the delivery checker, the latency
   samples, the outage sweep and the per-node delivery rates. Times are
   virtual nanoseconds. *)

module F = Samples.Floats

type t = {
  nodes : int;
  check : bool;  (** keep what the checks, latencies and outage need *)
  checker : Checker.t;
  due : F.t array;  (** per origin, indexed by [app_seq - 1] *)
  first_max : int array;  (** per origin, highest app_seq delivered anywhere *)
  firsts : F.t;  (** first-delivery instant of each message *)
  deliveries : F.t;  (** every delivery instant at every node *)
  latencies : F.t;  (** ms, deliveries inside the window *)
  mutable w0 : float;
  mutable w1 : float;
  mutable msgs : int;  (** deliveries inside the window, all nodes *)
  mutable bytes : int;
  mutable hash : int;  (** of every delivery: node, message, instant *)
}

let create ~nodes ~check =
  {
    nodes;
    check;
    checker = Checker.create ~nodes;
    due = Array.init nodes (fun _ -> F.create ());
    first_max = Array.make nodes 0;
    firsts = F.create ();
    deliveries = F.create ();
    latencies = F.create ();
    w0 = 0.0;
    w1 = infinity;
    msgs = 0;
    bytes = 0;
    hash = 0;
  }

(* The measured window, [w0, w1] in virtual ns. *)
let set_window t ~w0 ~w1 =
  t.w0 <- float_of_int w0;
  t.w1 <- float_of_int w1

let offer t ~origin ~due =
  let d = t.due.(origin) in
  if t.check then Checker.offer t.checker ~origin ~app_seq:(d.F.n + 1);
  F.push d (float_of_int due)

let deliver t ~node ~origin ~app_seq ~bytes ~at =
  t.hash <-
    ((((t.hash * 1000003) lxor node) * 1000003) lxor Checker.key ~origin ~app_seq)
    * 1000003
    lxor at;
  let at = float_of_int at in
  let inside = at >= t.w0 && at <= t.w1 in
  if inside then begin
    t.msgs <- t.msgs + 1;
    t.bytes <- t.bytes + bytes
  end;
  if t.check then begin
    Checker.deliver t.checker ~node ~origin ~app_seq;
    F.push t.deliveries at;
    if origin >= 0 && origin < t.nodes && app_seq > t.first_max.(origin) then begin
      t.first_max.(origin) <- app_seq;
      F.push t.firsts at
    end;
    if inside && Checker.offered t.checker ~origin ~app_seq then
      F.push t.latencies ((at -. t.due.(origin).F.a.(app_seq - 1)) *. 1e-6)
  end

let checker t = t.checker

(* Observe every agreed delivery of cluster [c]. *)
let on_deliver t spans c =
  Totem_cluster.Cluster.on_deliver c (fun node m ->
      Spans.enter spans;
      deliver t ~node ~origin:m.Totem_srp.Message.origin
        ~app_seq:m.Totem_srp.Message.app_seq ~bytes:m.Totem_srp.Message.size
        ~at:(Totem_cluster.Cluster.now c);
      Spans.leave spans "bench.hooks")

(* Longest offered-but-undelivered interval with no delivery at any
   node, inside the window ending at [until] (virtual ns); ms. *)
let outage_ms t ~until =
  let dues = Array.concat (Array.to_list (Array.map F.to_array t.due)) in
  Samples.outage ~w0:t.w0 ~w1:(Float.min t.w1 (float_of_int until)) ~dues
    ~firsts:(F.to_array t.firsts) ~deliveries:(F.to_array t.deliveries)
  *. 1e-6

(* Feed a run's virtual observables into a fingerprint. *)
let fingerprint t fp =
  Rep.Fp.int fp t.msgs;
  Rep.Fp.int fp t.bytes;
  Rep.Fp.int fp t.hash
