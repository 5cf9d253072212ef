module Pool = Stob_par.Pool

type 'a cell = {
  label : string;
  config : (string * string) list;
  seed : int;
  run : attempt:int -> 'a;
}

type 'a outcome = {
  label : string;
  key : string;
  result : ('a, string) result;
  cached : bool;
  attempts : int;
}

type report = {
  total : int;
  computed : int;
  cached : int;
  retried : int;
  poisoned : (string * string) list;
}

type 'r sweep =
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?inject:(label:string -> attempt:int -> unit) ->
  ?store:Store.t ->
  ?on_report:(report -> unit) ->
  unit ->
  'r

let run ?(pool = Pool.sequential) ?(retries = 0) ?inject ?store ~experiment ~encode ~decode
    cells =
  if retries < 0 then invalid_arg "Supervisor.run: retries must be >= 0";
  let cells = Array.of_list cells in
  let keys =
    Array.map (fun c -> Cell.digest ~experiment ~config:c.config ~seed:c.seed) cells
  in
  let seen = Hashtbl.create (Array.length cells) in
  Array.iteri
    (fun i k ->
      match Hashtbl.find_opt seen k with
      | Some j ->
          invalid_arg
            (Printf.sprintf "Supervisor.run: cells %S and %S share digest %s" cells.(j).label
               cells.(i).label k)
      | None -> Hashtbl.add seen k i)
    keys;
  let cached_status = Array.map (fun k -> Option.bind store (fun s -> Store.find s k)) keys in
  let decode_cached i payload =
    try decode payload
    with e ->
      failwith
        (Printf.sprintf
           "Stob_store: cached cell %S does not decode (%s) — stale state dir from another \
            build? remove it and rerun"
           cells.(i).label (Printexc.to_string e))
  in
  (* Everything not already journaled, in cell order. *)
  let task_idx =
    Array.of_list
      (List.filter (fun i -> cached_status.(i) = None)
         (List.init (Array.length cells) Fun.id))
  in
  let attempt_cell i =
    let c = cells.(i) in
    let rec go attempt =
      match
        (match inject with Some f -> f ~label:c.label ~attempt | None -> ());
        c.run ~attempt
      with
      | v -> (Ok v, attempt + 1)
      | exception e ->
          if attempt < retries then go (attempt + 1)
          else (Error (Printexc.to_string e), attempt + 1)
    in
    go 0
  in
  (* The on-completion hook fires in task-index order whatever the domain
     count, so the journal's record sequence — hence its bytes — is
     jobs-invariant. *)
  let on_done ti ((res : _ result), _attempts) =
    match store with
    | None -> ()
    | Some s ->
        let i = task_idx.(ti) in
        let status =
          match res with Ok v -> Store.Done (encode v) | Error msg -> Store.Poisoned msg
        in
        Store.record s ~key:keys.(i) ~label:cells.(i).label status
  in
  let task_results = Pool.map ~on_done pool attempt_cell task_idx in
  let by_cell = Hashtbl.create (Array.length task_idx) in
  Array.iteri (fun ti i -> Hashtbl.replace by_cell i task_results.(ti)) task_idx;
  List.init (Array.length cells) (fun i ->
      match cached_status.(i) with
      | Some (Store.Done payload) ->
          { label = cells.(i).label; key = keys.(i); result = Ok (decode_cached i payload);
            cached = true; attempts = 0 }
      | Some (Store.Poisoned msg) ->
          { label = cells.(i).label; key = keys.(i); result = Error msg; cached = true;
            attempts = 0 }
      | None ->
          let result, attempts = Hashtbl.find by_cell i in
          { label = cells.(i).label; key = keys.(i); result; cached = false; attempts })

let report (outcomes : _ outcome list) =
  let total = List.length outcomes in
  let cached = List.length (List.filter (fun (o : _ outcome) -> o.cached) outcomes) in
  let retried = List.length (List.filter (fun (o : _ outcome) -> o.attempts > 1) outcomes) in
  let poisoned =
    List.filter_map
      (fun (o : _ outcome) ->
        match o.result with Error msg -> Some (o.label, msg) | Ok _ -> None)
      outcomes
  in
  let fresh_poisoned =
    List.length
      (List.filter (fun (o : _ outcome) -> (not o.cached) && Result.is_error o.result) outcomes)
  in
  { total; computed = total - cached - fresh_poisoned; cached; retried; poisoned }

let pp_report ppf r =
  Format.fprintf ppf "%d cells: %d computed, %d cached, %d retried, %d poisoned" r.total
    r.computed r.cached r.retried
    (List.length r.poisoned);
  List.iter (fun (label, msg) -> Format.fprintf ppf "@.  poisoned %s: %s" label msg) r.poisoned
