(** The DF-lite architecture on the per-sample float64 oracle engine
    ({!Nn}): the baseline of the [dfnet] parity and speedup gates.

    Same layer order, shapes and RNG draw order as
    {!Stob_kfp.Dfnet.build}, so the same seed gives the batched net the
    float32 rounding of this net's weights. *)

val build : rng:Stob_util.Rng.t -> n_classes:int -> Nn.Network.t
