(** Hierarchical timing-wheel event queue with exact [(time, sequence)]
    ordering.

    Drop-in replacement for the seed's binary heap (kept as the heap
    oracle of the test-only [stob_oracle] library): same API, same pop
    sequence on every schedule — including same-instant bursts, pushes at
    or before the current instant, and far-future timers — but O(1)
    amortized per operation instead of O(log n), which is what makes
    population-scale simulation affordable.  The [sim.wheel] differential
    battery and the [simperf] bench gate both properties.

    Structure: 4 levels of 256 slots each bucket events by tick
    ([trunc (time / granularity)]); events whose tick is at or before the
    cursor sit in a small exact-order binary heap, so tick quantization
    never leaks into pop order.  Events beyond the 2^32-tick horizon (over
    twelve simulated days at the default granularity) wait in an overflow
    list and are re-placed when the wheel drains past them. *)

type 'a t

val create : ?granularity:float -> unit -> 'a t
(** [granularity] is the tick width in seconds, 256 µs unless given.
    Ordering is exact for {e any} positive granularity; granularity only
    tunes bucketing efficiency.  Raises [Invalid_argument] on a
    non-positive granularity. *)

val push : 'a t -> time:float -> 'a -> unit
(** Insert an element with priority [time].  Same-instant inserts pop in
    insertion order, exactly like the heap oracle. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest element, or [None] when empty. *)

val peek : 'a t -> (float * 'a) option
(** Earliest element without removing it. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

