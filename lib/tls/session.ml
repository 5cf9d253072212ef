type mode = User_tls | Ktls

type t = {
  config : Record.config;
  padding : Record.padding;
  mode : mode;
  endpoint : Stob_tcp.Endpoint.t;
  mutable plaintext : int;
  mutable ciphertext : int;
  mutable ktls_pending : int;  (* plaintext not yet framed, kTLS coalescing *)
}

let create ?(config = Record.default) ?(padding = Record.No_padding) ~mode endpoint =
  { config; padding; mode; endpoint; plaintext = 0; ciphertext = 0; ktls_pending = 0 }

let push_records t records =
  List.iter
    (fun bytes ->
      t.ciphertext <- t.ciphertext + bytes;
      Stob_tcp.Endpoint.write t.endpoint bytes)
    records

let send t n =
  if n <= 0 then invalid_arg "Session.send: byte count must be positive";
  t.plaintext <- t.plaintext + n;
  match t.mode with
  | User_tls ->
      (* Application-formed records: write boundaries are record
         boundaries. *)
      push_records t (Record.records_for t.config ~padding:t.padding n)
  | Ktls ->
      (* Stack-formed records: coalesce successive writes into full records;
         the tail waits for more data or an explicit {!flush}. *)
      let total = t.ktls_pending + n in
      let full = total / t.config.max_plaintext in
      let rest = total mod t.config.max_plaintext in
      if full > 0 then
        push_records t (Record.records_for t.config ~padding:t.padding (full * t.config.max_plaintext));
      t.ktls_pending <- rest

let flush t =
  if t.ktls_pending > 0 then begin
    push_records t (Record.records_for t.config ~padding:t.padding t.ktls_pending);
    t.ktls_pending <- 0
  end

let ciphertext_sent t = t.ciphertext

let overhead_ratio t =
  if t.plaintext = 0 then 0.0
  else float_of_int (t.ciphertext - t.plaintext) /. float_of_int t.plaintext
