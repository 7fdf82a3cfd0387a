(* Delivery checker: every agreed delivery the benchmark observes is
   checked against what was offered and against what the other nodes
   delivered.

   Online, per delivering node and origin: a message delivered twice in
   one incarnation is a duplicate, and a message whose [app_seq] is
   below one already delivered from the same origin is a reordering.

   At [finish], across nodes: every incarnation's delivery sequence must
   be a contiguous run of the reference sequence (the longest sequence
   of a node that never rejoined) — the first incarnation of a node that
   never rejoined must start at its head — and the reference itself must
   hold each origin's messages as 1, 2, 3, ... with no hole. With
   [~complete:true] every offered message must be in the reference, and
   every node must have delivered all of it from where its last
   incarnation began. *)

type failure =
  | Duplicate of { node : int; origin : int; app_seq : int }
  | Reordered of { node : int; origin : int; app_seq : int; after : int }
  | Unknown of { node : int; origin : int; app_seq : int }
  | Dropped of { node : int; origin : int; app_seq : int }
  | Diverged of { node : int; position : int }

let pp_failure ppf = function
  | Duplicate { node; origin; app_seq } ->
    Format.fprintf ppf "node %d delivered %d.%d twice" node origin app_seq
  | Reordered { node; origin; app_seq; after } ->
    Format.fprintf ppf "node %d delivered %d.%d after %d.%d" node origin
      app_seq origin after
  | Unknown { node; origin; app_seq } ->
    Format.fprintf ppf "node %d delivered %d.%d, which was never offered"
      node origin app_seq
  | Dropped { node; origin; app_seq } ->
    Format.fprintf ppf "node %d never delivered %d.%d" node origin app_seq
  | Diverged { node; position } ->
    Format.fprintf ppf
      "node %d's delivery order departs from the agreed order at its \
       delivery %d"
      node position

(* A message is packed as [origin lsl 32 lor app_seq]. *)
let key ~origin ~app_seq = (origin lsl 32) lor app_seq
let origin_of k = k lsr 32
let seq_of k = k land 0xFFFF_FFFF

(* Growable int array. *)
module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1
end

type node_state = {
  mutable incarnations : Ints.t list;  (** newest first *)
  mutable seen : (int, unit) Hashtbl.t;  (** keys delivered this incarnation *)
  mutable last : int array;  (** highest app_seq delivered, per origin *)
}

type t = {
  origins : int;
  offered_per_origin : int array;  (** offered app_seqs are 1..n *)
  nodes : node_state array;
  mutable checked : int;
  mutable failures : failure list;  (** newest first *)
  mutable failed : int;
  mutable dropped : int;
}

let fresh_node origins =
  {
    incarnations = [ Ints.create () ];
    seen = Hashtbl.create 1024;
    last = Array.make origins 0;
  }

let create ~nodes =
  {
    origins = nodes;
    offered_per_origin = Array.make nodes 0;
    nodes = Array.init nodes (fun _ -> fresh_node nodes);
    checked = 0;
    failures = [];
    failed = 0;
    dropped = 0;
  }

let fail t f =
  t.failed <- t.failed + 1;
  (match f with Dropped _ -> t.dropped <- t.dropped + 1 | _ -> ());
  if List.length t.failures < 8 then t.failures <- f :: t.failures

(* Each origin offers app_seq 1, 2, 3, ... in order. *)
let offer t ~origin ~app_seq =
  if app_seq <> t.offered_per_origin.(origin) + 1 then
    invalid_arg "Checker.offer: app_seq out of order";
  t.offered_per_origin.(origin) <- app_seq

let offered t ~origin ~app_seq =
  origin >= 0 && origin < t.origins && app_seq >= 1
  && app_seq <= t.offered_per_origin.(origin)

let deliver t ~node ~origin ~app_seq =
  t.checked <- t.checked + 1;
  let s = t.nodes.(node) in
  let k = key ~origin ~app_seq in
  (match s.incarnations with
  | cur :: _ -> Ints.push cur k
  | [] -> assert false);
  if not (offered t ~origin ~app_seq) then fail t (Unknown { node; origin; app_seq })
  else if Hashtbl.mem s.seen k then fail t (Duplicate { node; origin; app_seq })
  else begin
    Hashtbl.replace s.seen k ();
    if app_seq < s.last.(origin) then
      fail t (Reordered { node; origin; app_seq; after = s.last.(origin) })
    else s.last.(origin) <- app_seq
  end

(* A new incarnation of [node]: it may resume at any point of the
   agreed order, but from there on must follow it without a hole. *)
let rejoin t ~node =
  let s = t.nodes.(node) in
  s.incarnations <- Ints.create () :: s.incarnations;
  Hashtbl.reset s.seen;
  Array.fill s.last 0 (Array.length s.last) 0

(* Operations checked: deliveries seen plus deliveries that never came. *)
let attempted t = t.checked + t.dropped
let failed t = t.failed
let failures t = List.rev t.failures

let finish ?(complete = false) t =
  let n = Array.length t.nodes in
  let single i = List.length t.nodes.(i).incarnations = 1 in
  let seq i =
    match t.nodes.(i).incarnations with cur :: _ -> cur | [] -> assert false
  in
  let ref_node = ref (-1) in
  for i = 0 to n - 1 do
    if single i && (!ref_node < 0 || (seq i).Ints.n > (seq !ref_node).Ints.n)
    then ref_node := i
  done;
  if !ref_node >= 0 then begin
    let r = seq !ref_node in
    let pos = Hashtbl.create (2 * r.Ints.n + 1) in
    let next = Array.make t.origins 1 in
    for p = 0 to r.Ints.n - 1 do
      let k = r.Ints.a.(p) in
      if not (Hashtbl.mem pos k) then Hashtbl.replace pos k p;
      let o = origin_of k in
      (* Holes in the reference are drops at the reference node; an
         earlier app_seq here was already reported online. *)
      if o < t.origins && seq_of k > next.(o) then begin
        for missing = next.(o) to seq_of k - 1 do
          fail t (Dropped { node = !ref_node; origin = o; app_seq = missing })
        done;
        next.(o) <- seq_of k + 1
      end
      else if o < t.origins && seq_of k = next.(o) then next.(o) <- seq_of k + 1
    done;
    if complete then
      for o = 0 to t.origins - 1 do
        for missing = next.(o) to t.offered_per_origin.(o) do
          fail t (Dropped { node = !ref_node; origin = o; app_seq = missing })
        done
      done;
    Array.iteri
      (fun i s ->
        let incs = List.rev s.incarnations in
        let last_inc = List.length incs - 1 in
        List.iteri
          (fun j (inc : Ints.t) ->
            if inc.Ints.n > 0 then begin
              let start =
                match Hashtbl.find_opt pos inc.Ints.a.(0) with
                | Some p when j > 0 || p = 0 -> p
                | _ -> -1
              in
              if start < 0 then fail t (Diverged { node = i; position = 0 })
              else begin
                let bad = ref (-1) in
                let q = ref 0 in
                while !bad < 0 && !q < inc.Ints.n do
                  if start + !q >= r.Ints.n || r.Ints.a.(start + !q) <> inc.Ints.a.(!q)
                  then bad := !q;
                  incr q
                done;
                if !bad >= 0 then begin
                  (* A hole where the agreed order has a message this
                     incarnation never delivered is a drop. *)
                  let p = start + !bad in
                  let missing =
                    p < r.Ints.n
                    && not (Array.exists (( = ) r.Ints.a.(p)) (Array.sub inc.Ints.a 0 inc.Ints.n))
                  in
                  if missing then
                    let k = r.Ints.a.(p) in
                    fail t (Dropped { node = i; origin = origin_of k; app_seq = seq_of k })
                  else fail t (Diverged { node = i; position = !bad })
                end
                else if
                  complete && j = last_inc && start + inc.Ints.n < r.Ints.n
                then
                  let k = r.Ints.a.(start + inc.Ints.n) in
                  fail t
                    (Dropped { node = i; origin = origin_of k; app_seq = seq_of k })
              end
            end
            else if complete && j = last_inc && r.Ints.n > 0 then
              let k = r.Ints.a.(if j = 0 then 0 else r.Ints.n - 1) in
              fail t (Dropped { node = i; origin = origin_of k; app_seq = seq_of k }))
          incs)
      t.nodes
  end
