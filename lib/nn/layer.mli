(** Batched neural-network layers over float32 {!Tensor}s.

    The minibatch rebuild of the per-sample oracle [Stob_oracle.Nn.Layer]:
    each layer is a value describing shared parameters (float32 weights,
    float64 momentum), and all mutable working state lives in an explicit
    per-shard {!ctx}/{!grads} pair, so {!Network.fit} can run minibatch
    shards on separate domains without sharing a mutable word.  Dense
    layers and the im2col-lowered 1-D convolution run on {!Tensor.gemm};
    every kernel accumulates in float64 and rounds to float32 once on
    store.

    Shapes and semantics mirror the reference exactly: batches are
    [rows x features] tensors whose rows are the channel-major per-sample
    vectors the reference consumes, constructors draw from the RNG in the
    reference's order (a net built from the same seed carries the float32
    rounding of the oracle's weights), and updates follow the same
    SGD-with-momentum recurrence.

    [ctx]/[grads]/[forward]/[backward] are the engine-internal contract
    between this module and {!Network}; they are exposed for it and for
    the gradient-check tests. *)

type t

val dense : rng:Stob_util.Rng.t -> inputs:int -> outputs:int -> t
(** Fully connected layer, He-initialized (reference draw order). *)

val relu : size:int -> t
(** Elementwise ReLU over vectors of [size] features (the size is needed
    to pre-allocate per-shard buffers; the reference closure grew them per
    call). *)

val conv1d :
  rng:Stob_util.Rng.t -> in_channels:int -> out_channels:int -> kernel:int -> length:int -> t
(** Valid (no padding) 1-D convolution over channel-major rows of
    [in_channels * length]; output rows are
    [out_channels * (length - kernel + 1)].  Lowered to GEMM via im2col. *)

val maxpool1d : channels:int -> length:int -> factor:int -> t
(** Non-overlapping max pooling per channel; trailing remainder dropped.
    The argmax scratch lives in the per-shard {!ctx} — the shared-buffer
    reentrancy bug of the original per-sample layer cannot recur here. *)

val conv_output_length : length:int -> kernel:int -> int
val pool_output_length : length:int -> factor:int -> int

val input_size : t -> int
val output_size : t -> int

val params : t -> Tensor.t list
(** The layer's float32 parameter tensors ([weights; bias] or []), shared
    mutable state — written only by {!apply_update}.  Exposed for the
    finite-difference tests and the weight digest. *)

val velocities : t -> float array list
(** The float64 momentum buffers matching {!params}. *)

(** {1 Per-shard execution state} *)

type ctx
(** All buffers one shard's forward/backward traffic touches (activations,
    input gradients, argmax and im2col scratch).  One ctx per concurrent
    shard; never share across domains. *)

val make_ctx : t -> rows:int -> ctx
(** Buffers sized for up to [rows] samples. *)

type grads = { gw : float array; gb : float array }
(** Float64 parameter-gradient accumulators ([[||]] for layers without
    parameters). *)

val make_grads : t -> grads
val zero_grads : grads -> unit

val add_grads : src:grads -> dst:grads -> unit
(** [dst += src], elementwise in float64.  {!Network.fit} folds shard
    gradients with this in fixed shard order. *)

val forward : t -> ctx -> rows:int -> Tensor.t -> Tensor.t
(** [forward spec ctx ~rows x]: run the leading [rows] rows of [x]
    ([rows x input_size]) through the layer; returns a [rows x output_size]
    view into [ctx]'s output buffer (valid until the ctx's next forward). *)

val backward : t -> ctx -> grads -> rows:int -> input:Tensor.t -> dout:Tensor.t -> Tensor.t
(** [backward spec ctx g ~rows ~input ~dout]: map dLoss/dOutput to
    dLoss/dInput for the rows last seen by [forward] (pass the same
    [input]), accumulating parameter gradients into [g] in float64.
    Returns a view into [ctx]'s input-gradient buffer. *)

val apply_update : t -> grads -> lr:float -> unit
(** One SGD-with-momentum step from the (already reduced) gradients.  Does
    {e not} clear [g] — the trainer re-zeroes shard accumulators at the
    start of each shard pass. *)
