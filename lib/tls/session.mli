(** A TLS session bound to a TCP endpoint.

    Figure 1's three stack organizations differ in {e where} records are
    formed.  [User_tls] models the classic arrangement: the application
    frames records itself, so each application write turns into records
    before entering the socket buffer.  [Ktls] models in-kernel TLS: the
    application writes plaintext byte counts and the stack forms records —
    the framing the defense can influence when it lives in the stack.

    Either way, what reaches the TCP endpoint is ciphertext byte counts;
    the mode affects how padding can be applied and how write boundaries
    map to record boundaries. *)

type mode = User_tls | Ktls

type t

val create : ?config:Record.config -> ?padding:Record.padding -> mode:mode -> Stob_tcp.Endpoint.t -> t

val send : t -> int -> unit
(** Write [n] plaintext application bytes through the session.  In [Ktls]
    mode, partial records coalesce across writes until {!flush}. *)

val flush : t -> unit
(** Emit any coalesced partial record ([Ktls] mode; no-op for [User_tls]).
    Servers flush at response boundaries. *)

val ciphertext_sent : t -> int

val overhead_ratio : t -> float
(** (ciphertext - plaintext) / plaintext so far; [0.] before any send. *)

