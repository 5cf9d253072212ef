(* In-memory span recorder for the traced benchmark run.

   A span is one call into a layer, named "<layer>.<operation>".  Spans
   nest through a stack of open spans, so each records its parent; every
   span opened inside [cell] shares that cell's id.  Nothing is written
   until the run ends.  With recording off (the untraced run) [span] is a
   single branch around the call. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span. *)
  cell : int;  (** 0 outside any cell. *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
  alloc_bytes : float;  (** [Gc.allocated_bytes] over the span, children included. *)
}

let on = ref false
let spans : span list ref = ref []
let open_spans : (int * int) list ref = ref []
let next_id = ref 0
let next_cell = ref 0

let now_ns () = Monotonic_clock.now ()

let record ?cell name f =
  let id = !next_id in
  incr next_id;
  let parent, inherited = match !open_spans with (p, c) :: _ -> (p, c) | [] -> (-1, 0) in
  let cell = Option.value cell ~default:inherited in
  open_spans := (id, cell) :: !open_spans;
  let a0 = Gc.allocated_bytes () in
  let start_ns = now_ns () in
  let close () =
    let stop_ns = now_ns () in
    let alloc_bytes = Gc.allocated_bytes () -. a0 in
    open_spans := List.tl !open_spans;
    spans := { id; parent; cell; name; start_ns; stop_ns; alloc_bytes } :: !spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let span name f = if !on then record name f else f ()

(* A cell is a sweep cell or another unit of the workload's result; its
   span and every span under it carry a fresh cell id. *)
let cell name f =
  if !on then begin
    incr next_cell;
    record ~cell:!next_cell name f
  end
  else f ()

(* Per-layer counts, kept at the same call sites as the spans. *)
let counters : (string, float) Hashtbl.t = Hashtbl.create 32
let samples : (string, float list) Hashtbl.t = Hashtbl.create 8

let count name v =
  if !on then
    Hashtbl.replace counters name (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.0)

let sample name v =
  if !on then
    Hashtbl.replace samples name (v :: Option.value (Hashtbl.find_opt samples name) ~default:[])

let finished () = List.rev !spans
