(* One iteration of one benchmark workload, as a process of its own.

     wfbench.exe --workload NAME --seed N [--size default|smoke]
                 [--trace 0|1] [--t0-ns NS] [--state-dir DIR] [--setup-only]

   Prints one JSON record: set-up and wall time, peak RSS, each
   operation's canonical result, the run stamp, and with --trace 1 the
   recorded spans and per-layer counts.  [--t0-ns] is the CLOCK_MONOTONIC
   reading taken by the caller just before it started this process, so
   set-up time covers exec, runtime start-up and module initialisation.
   [--setup-only] stops at the first library call and prints only the
   set-up time, so a run can take the median of many set-ups cheaply.
   run.py drives it; see perfbench/README.md. *)

let start_ns = Tracer.now_ns ()

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let json_obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
let json_list items = "[" ^ String.concat ", " items ^ "]"

(* VmHWM: peak resident set, bigarray memory included. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kib ->
            float_of_int kib *. 1024.0 /. 1e6)
    | _ -> scan ()
    | exception End_of_file -> Float.nan
  in
  scan ()

let () =
  let workload = ref "" and seed = ref 42 and size = ref "default" and trace = ref 0 in
  let t0_ns = ref None and state_dir = ref "" and setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workloads.names);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--size", Arg.Set_string size, "default|smoke");
      ("--trace", Arg.Set_int trace, "0|1 record spans");
      ("--t0-ns", Arg.String (fun s -> t0_ns := Some (Int64.of_string s)), "NS caller's clock at spawn");
      ("--state-dir", Arg.Set_string state_dir, "DIR scratch directory (population)");
      ("--setup-only", Arg.Set setup_only, " stop at the first library call");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wfbench.exe --workload NAME --seed N [--size default|smoke] [--trace 0|1]";
  let size =
    match !size with
    | "default" -> Workloads.Default
    | "smoke" -> Workloads.Smoke
    | s -> raise (Arg.Bad ("unknown size " ^ s))
  in
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("wfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let traced = !trace = 1 in
  let origin = Option.value !t0_ns ~default:start_ns in
  let prepared = Workloads.prepare !workload size ~seed:!seed ~state_dir:!state_dir in
  if !workload = "population" then Unix.mkdir !state_dir 0o755;
  Tracer.on := traced;
  let body_start = Tracer.now_ns () in
  let secs a b = Int64.to_float (Int64.sub b a) /. 1e9 in
  if !setup_only then begin
    print_endline (json_obj [ ("setup_s", json_float (secs origin body_start)) ]);
    exit 0
  end;
  let outcome = try Ok (prepared.Workloads.body ~traced) with e -> Error (Printexc.to_string e) in
  let body_stop = Tracer.now_ns () in
  let ops =
    match outcome with
    | Ok finish -> (
        try finish ()
        with e -> [ { Workloads.label = "finish"; result = Error (Printexc.to_string e) } ])
    | Error e -> [ { Workloads.label = "body"; result = Error e } ]
  in
  Tracer.on := false;
  let rss = peak_rss_mb () in
  let rel t = secs body_start t in
  let op_json (o : Workloads.op) =
    match o.Workloads.result with
    | Ok r -> json_obj [ ("label", json_string o.Workloads.label); ("ok", "true"); ("result", json_string r) ]
    | Error e -> json_obj [ ("label", json_string o.Workloads.label); ("ok", "false"); ("error", json_string e) ]
  in
  let span_json (s : Tracer.span) =
    json_list
      [ string_of_int s.Tracer.id; string_of_int s.Tracer.parent; string_of_int s.Tracer.cell;
        json_string s.Tracer.name; json_float (rel s.Tracer.start_ns); json_float (rel s.Tracer.stop_ns);
        json_float s.Tracer.alloc_bytes ]
  in
  let table h f = json_obj (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) h [] |> List.sort compare) in
  print_endline
    (json_obj
       [
         ("workload", json_string !workload);
         ("seed", string_of_int !seed);
         ("size", json_string (if size = Workloads.Default then "default" else "smoke"));
         ("traced", if traced then "true" else "false");
         ("setup_s", json_float (secs origin body_start));
         ("wall_s", json_float (secs body_start body_stop));
         ("peak_rss_mb", json_float rss);
         ("ops", json_list (List.map op_json ops));
         ( "stamp",
           json_obj
             [ ("ocaml", json_string Sys.ocaml_version);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("domains", "1");
               ("seed", string_of_int !seed);
               ("config", json_obj (List.map (fun (k, v) -> (k, json_string v)) prepared.Workloads.config)) ] );
         ("counters", table Tracer.counters json_float);
         ("samples", table Tracer.samples (fun l -> json_list (List.rev_map json_float l)));
         ("spans", json_list (List.map span_json (Tracer.finished ())));
       ])
