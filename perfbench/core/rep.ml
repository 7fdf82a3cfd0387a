(* What one repetition of a workload yields. Host times are measured
   inside the repetition; everything else is a function of the seed. *)

type t = {
  fingerprint : string;  (** digest of every virtual-time observable *)
  setup : float array;
      (** host seconds before the measured window opens, as segments
          that recur identically in every repetition *)
  wall : float array;  (** host seconds of the measured window, as segments *)
  attempted : int;
  failed : int;
  failures : string list;  (** the first few, for the log *)
  vsec : float;  (** virtual seconds measured, summed over cluster runs *)
  msgs : float;  (** agreed deliveries per node in the measured windows *)
  bytes : float;  (** payload bytes of those deliveries, per node *)
  latencies : float array;  (** virtual delivery latencies, ms *)
  outages : float array;  (** ms, one per cluster run *)
  counts : (string * float) list;  (** per-layer counters *)
}

(* A repetition with the harness's own measurements around it. *)
type measured = {
  fp : string;
  setup_segs : float array;
  wall_segs : float array;
  kernel : float;  (** host seconds of the calibration kernel before it *)
  layer_counts : (string * float) list;
  alloc_words : float;  (** words allocated, set-up included *)
  minor_gcs : int;
  major_gcs : int;
  pauses : float array;  (** GC pauses, ms; traced repetitions only *)
}

(* Per-layer counters accumulated over a repetition's cluster runs. *)
module Counts = struct
  type t = { tbl : (string, float) Hashtbl.t; mutable order : string list }

  let create () = { tbl = Hashtbl.create 64; order = [] }

  let add t name v =
    match Hashtbl.find_opt t.tbl name with
    | Some x -> Hashtbl.replace t.tbl name (x +. v)
    | None ->
      Hashtbl.replace t.tbl name v;
      t.order <- name :: t.order

  let addi t name v = add t name (float_of_int v)

  let max t name v =
    match Hashtbl.find_opt t.tbl name with
    | Some x -> Hashtbl.replace t.tbl name (Float.max x v)
    | None ->
      Hashtbl.replace t.tbl name v;
      t.order <- name :: t.order

  let get t name = Option.value ~default:0.0 (Hashtbl.find_opt t.tbl name)
  let to_list t = List.rev_map (fun n -> (n, Hashtbl.find t.tbl n)) t.order
end

(* Fingerprint accumulator: integers only, so equal runs give equal bytes. *)
module Fp = struct
  type t = Buffer.t

  let create () = Buffer.create 4096
  let int b i = Buffer.add_string b (string_of_int i); Buffer.add_char b ','
  let float b x = int b (Int64.to_int (Int64.bits_of_float x))
  let str b s = Buffer.add_string b s; Buffer.add_char b ';'
  let digest b = Digest.to_hex (Digest.string (Buffer.contents b))
end
