(* The pre-batching DF build, verbatim, on the per-sample oracle engine. *)

let build ~rng ~n_classes =
  let module L = Nn.Layer in
  let l1 = Stob_kfp.Dfnet.input_length in
  let c1 = L.conv_output_length ~length:l1 ~kernel:8 in
  let p1 = L.pool_output_length ~length:c1 ~factor:3 in
  let c2 = L.conv_output_length ~length:p1 ~kernel:8 in
  let p2 = L.pool_output_length ~length:c2 ~factor:3 in
  Nn.Network.create
    [
      L.conv1d ~rng ~in_channels:1 ~out_channels:8 ~kernel:8 ~length:l1;
      L.relu ();
      L.maxpool1d ~channels:8 ~length:c1 ~factor:3;
      L.conv1d ~rng ~in_channels:8 ~out_channels:16 ~kernel:8 ~length:p1;
      L.relu ();
      L.maxpool1d ~channels:16 ~length:c2 ~factor:3;
      L.dense ~rng ~inputs:(16 * p2) ~outputs:64;
      L.relu ();
      L.dense ~rng ~inputs:64 ~outputs:n_classes;
    ]
