exception Corrupt of string

let magic = "STOBJRNL1\n"

(* A frame length beyond this is treated as a torn/garbage tail rather
   than an instruction to allocate gigabytes. *)
let max_record = 1 lsl 28

type retry = { attempts : int; backoff_s : float }

let default_retry = { attempts = 4; backoff_s = 0.002 }
let no_retry = { attempts = 1; backoff_s = 0. }

type t = {
  path : string;
  vfs : Vfs.t;
  retry : retry;
  mutable fd : Vfs.file option;
  mu : Mutex.t;
  mutable frames : int;  (* replayed + successfully appended through this handle *)
  mutable retried : int;  (* transient syscall errors absorbed by retries *)
}

(* Errors worth retrying: interruptions and the transient face of media
   trouble.  ENOSPC is included — an operator freeing space mid-sweep is
   the realistic recovery — and when it persists the bounded retry gives
   up quickly and the store degrades instead (Store.record). *)
let transient = function
  | Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EIO | Unix.ENOSPC -> true
  | _ -> false

(* Bounded retry with doubling backoff around one syscall.  Only
   [Unix_error]s are candidates: a fault plane's simulated process death
   (Io_fault.Crash) is not an I/O error and must propagate untouched. *)
let with_retry retry count f =
  let rec go attempt =
    try f ()
    with Unix.Unix_error (e, _, _) when transient e && attempt + 1 < retry.attempts ->
      if retry.backoff_s > 0. then Unix.sleepf (retry.backoff_s *. float_of_int (1 lsl attempt));
      incr count;
      go (attempt + 1)
  in
  go 0

(* Whole-buffer write with a per-syscall retry envelope.  Retrying the
   individual [write] (not the loop) is what makes short writes safe: a
   transient error reports no progress, so reissuing from the current
   offset never duplicates bytes. *)
let write_bytes vfs retry count fd b =
  let len = Bytes.length b in
  let pos = ref 0 in
  while !pos < len do
    let n = with_retry retry count (fun () -> vfs.Vfs.write fd b ~pos:!pos ~len:(len - !pos)) in
    if n <= 0 then raise (Unix.Unix_error (Unix.EIO, "write", "no progress"));
    pos := !pos + n
  done

let frame payload =
  let len = String.length payload in
  let b = Buffer.create (len + 8) in
  let hdr = Bytes.create 8 in
  Bytes.set_int32_be hdr 0 (Int32.of_int len);
  Bytes.set_int32_be hdr 4 (Crc32.string payload);
  Buffer.add_bytes b hdr;
  Buffer.add_string b payload;
  Buffer.contents b

type cut = Clean | Torn | Crc_mismatch

type scan = { payloads : string list; valid : int option; size : int; cut : cut }

(* Longest valid prefix of [path], with the cut classified: the replayed
   payloads plus the byte offset where validity ends ([valid = None] when
   the file does not exist). *)
let scan path =
  if not (Sys.file_exists path) then { payloads = []; valid = None; size = 0; cut = Clean }
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let size = in_channel_length ic in
        let ml = String.length magic in
        if size < ml then
          (* torn header: recover to empty *)
          { payloads = []; valid = Some 0; size; cut = Torn }
        else if really_input_string ic ml <> magic then
          raise (Corrupt (path ^ ": not a stob journal (bad magic)"))
        else begin
          let records = ref [] in
          let pos = ref ml in
          let cut = ref Clean in
          (try
             while !pos + 8 <= size do
               let hdr = Bytes.of_string (really_input_string ic 8) in
               let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
               let crc = Bytes.get_int32_be hdr 4 in
               if len < 0 || len > max_record || !pos + 8 + len > size then begin
                 cut := Torn;
                 raise Exit
               end;
               let payload = really_input_string ic len in
               if Crc32.string payload <> crc then begin
                 cut := Crc_mismatch;
                 raise Exit
               end;
               records := payload :: !records;
               pos := !pos + 8 + len
             done;
             if !pos < size then cut := Torn (* trailing sub-header bytes *)
           with Exit -> ());
          { payloads = List.rev !records; valid = Some !pos; size; cut = !cut }
        end)
  end

let read path = (scan path).payloads

type scrub = {
  exists : bool;
  scrub_frames : int;
  scrub_bytes : int;  (** Total file size. *)
  valid_bytes : int;  (** Magic + valid frames. *)
  torn_bytes : int;  (** [scrub_bytes - valid_bytes]. *)
  crc_mismatch : bool;  (** The invalid tail begins with a CRC-failing frame. *)
}

let verify path =
  let s = scan path in
  match s.valid with
  | None ->
      { exists = false; scrub_frames = 0; scrub_bytes = 0; valid_bytes = 0; torn_bytes = 0;
        crc_mismatch = false }
  | Some v ->
      { exists = true; scrub_frames = List.length s.payloads; scrub_bytes = s.size;
        valid_bytes = v; torn_bytes = s.size - v; crc_mismatch = s.cut = Crc_mismatch }

let open_ ?(vfs = Vfs.unix) ?(retry = default_retry) path =
  let s = scan path in
  let count = ref 0 in
  (match s.valid with
  | Some v when v < s.size -> with_retry retry count (fun () -> vfs.Vfs.truncate path v)
  | Some _ | None -> ());
  let fd = with_retry retry count (fun () -> vfs.Vfs.open_append path) in
  (match s.valid with
  | None | Some 0 ->
      write_bytes vfs retry count fd (Bytes.of_string magic);
      with_retry retry count (fun () -> vfs.Vfs.flush fd)
  | Some _ -> ());
  ( { path; vfs; retry; fd = Some fd; mu = Mutex.create (); frames = List.length s.payloads;
      retried = !count },
    s.payloads )

let append t payload =
  Mutex.protect t.mu (fun () ->
      match t.fd with
      | None -> invalid_arg "Journal.append: closed journal"
      | Some fd ->
          let count = ref 0 in
          Fun.protect
            ~finally:(fun () -> t.retried <- t.retried + !count)
            (fun () ->
              write_bytes t.vfs t.retry count fd (Bytes.of_string (frame payload));
              with_retry t.retry count (fun () -> t.vfs.Vfs.flush fd);
              t.frames <- t.frames + 1))

let close t =
  Mutex.protect t.mu (fun () ->
      match t.fd with
      | None -> ()
      | Some fd ->
          t.fd <- None;
          t.vfs.Vfs.close fd)

let frames t = Mutex.protect t.mu (fun () -> t.frames)
let retried t = Mutex.protect t.mu (fun () -> t.retried)

let rewrite_counter = Atomic.make 0

let rewrite ?(vfs = Vfs.unix) ?(retry = default_retry) path payloads =
  let count = ref 0 in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add rewrite_counter 1)
  in
  let fd = with_retry retry count (fun () -> vfs.Vfs.open_trunc tmp) in
  (try
     write_bytes vfs retry count fd (Bytes.of_string magic);
     List.iter (fun p -> write_bytes vfs retry count fd (Bytes.of_string (frame p))) payloads;
     with_retry retry count (fun () -> vfs.Vfs.flush fd);
     vfs.Vfs.close fd
   with e ->
     (try vfs.Vfs.close fd with Unix.Unix_error _ | Sys_error _ -> ());
     (try vfs.Vfs.remove tmp with Unix.Unix_error _ | Sys_error _ -> ());
     raise e);
  (* Byte-level half of the replay-digest-agreement invariant: a rewrite
     that cannot replay exactly what it was asked to persist must not
     replace the journal. *)
  if read tmp <> payloads then begin
    (try vfs.Vfs.remove tmp with Unix.Unix_error _ | Sys_error _ -> ());
    raise (Corrupt (tmp ^ ": rewrite verify failed — fresh journal does not replay its input"))
  end;
  with_retry retry count (fun () -> vfs.Vfs.rename tmp path);
  !count
