(** Section 3's emulated kernel countermeasures, as trace transformations.

    The paper takes unmodified tcpdump traces and emulates two packet-
    sequence modifications a kernel defense could enforce, applied to
    incoming (server-to-client) traffic only:

    - {e splitting}: every incoming packet larger than 1200 B becomes two
      packets of half the size;
    - {e delaying}: each incoming packet's inter-arrival gap from the
      preceding packet grows by a uniform random 10-30 %, with the added
      delay cascading to everything after it (as a real kernel delay
      would);
    - {e combined}: splitting then delaying.

    Each transformation can be restricted to the first [n] packets of the
    trace — the censorship setting where only the connection prefix is
    defended/observed.  With [~first_n] the result is exactly that of
    transforming the first [n] packets and re-sorting the whole trace, and
    [delay] draws one variate per incoming packet at indices [1 .. n-1], in
    order; only the part of a sorted trace the transform can reorder is
    rebuilt. *)

val split : ?threshold:int -> ?first_n:int -> Stob_net.Trace.t -> Stob_net.Trace.t
(** Default threshold 1200 B.  Byte-conserving: the two halves sum to the
    original size. *)

val delay :
  ?lo:float -> ?hi:float -> ?first_n:int -> rng:Stob_util.Rng.t -> Stob_net.Trace.t -> Stob_net.Trace.t
(** Defaults [lo = 0.1], [hi = 0.3] (the paper's 10-30 %). *)

val combined :
  ?threshold:int ->
  ?lo:float ->
  ?hi:float ->
  ?first_n:int ->
  rng:Stob_util.Rng.t ->
  Stob_net.Trace.t ->
  Stob_net.Trace.t
(** {!split} then {!delay}, both over the same prefix bound. *)
