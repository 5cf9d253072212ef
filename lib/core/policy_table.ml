type t = {
  mutable global : Policy.t option;
  by_destination : (string, Policy.t) Hashtbl.t;
  by_flow : (int, Policy.t) Hashtbl.t;
}

let create () = { global = None; by_destination = Hashtbl.create 16; by_flow = Hashtbl.create 16 }

let set_global t p = t.global <- Some p
let set_for_destination t dest p = Hashtbl.replace t.by_destination dest p
let set_for_flow t flow p = Hashtbl.replace t.by_flow flow p
let remove_flow t flow = Hashtbl.remove t.by_flow flow

let lookup t ?destination flow =
  match Hashtbl.find_opt t.by_flow flow with
  | Some p -> p
  | None -> (
      let by_dest = Option.bind destination (Hashtbl.find_opt t.by_destination) in
      match by_dest with
      | Some p -> p
      | None -> ( match t.global with Some p -> p | None -> Policy.unmodified))

let attach t ?destination ?seed flow =
  let policy = lookup t ?destination flow in
  Controller.create ~seed:(Option.value ~default:flow seed) policy

let installed t =
  let entries = ref [] in
  (match t.global with Some p -> entries := [ ("*", p) ] | None -> ());
  Hashtbl.iter (fun d p -> entries := ("dst:" ^ d, p) :: !entries) t.by_destination;
  Hashtbl.iter (fun f p -> entries := (Printf.sprintf "flow:%d" f, p) :: !entries) t.by_flow;
  List.sort (fun (a, _) (b, _) -> compare a b) !entries
