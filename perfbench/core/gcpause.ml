(* GC pauses read from the runtime's own event ring (runtime_events):
   each minor collection and each major slice is one pause. Started
   only by traced runs; the ring file lives in OCAML_RUNTIME_EVENTS_DIR
   (or the working directory) and is removed when the process exits. *)

type t = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  pauses : Samples.Floats.t;  (** ms *)
  lost : int ref;  (** events overwritten before they were read *)
}

let is_pause = function
  | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
  | _ -> false

let start () =
  Runtime_events.start ();
  let pauses = Samples.Floats.create () in
  let open_at = Hashtbl.create 8 in
  let ns ts = Int64.to_float (Runtime_events.Timestamp.to_int64 ts) in
  let runtime_begin dom ts phase =
    if is_pause phase then Hashtbl.replace open_at (dom, phase) (ns ts)
  in
  let runtime_end dom ts phase =
    if is_pause phase then
      match Hashtbl.find_opt open_at (dom, phase) with
      | Some t0 ->
        Hashtbl.remove open_at (dom, phase);
        Samples.Floats.push pauses ((ns ts -. t0) *. 1e-6)
      | None -> ()
  in
  let lost = ref 0 in
  {
    cursor = Runtime_events.create_cursor None;
    callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
        ~lost_events:(fun _ n -> lost := !lost + n)
        ();
    pauses;
    lost;
  }

let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)

(* Drop what the ring holds (e.g. the compaction between repetitions). *)
let discard t =
  poll t;
  Samples.Floats.clear t.pauses

let pauses t =
  poll t;
  Samples.Floats.to_array t.pauses
