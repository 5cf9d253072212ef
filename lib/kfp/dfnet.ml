module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Packed_trace = Stob_net.Packed_trace
module Layer = Stob_nn.Layer
module Network = Stob_nn.Network
module Reference = Stob_nn.Reference
module Tensor = Stob_nn.Tensor
module Rng = Stob_util.Rng

let input_length = 600

let encode_batch traces =
  let n = Array.length traces in
  let t = Tensor.create n input_length in
  Array.iteri
    (fun i trace ->
      let len = min (Trace.length trace) input_length in
      for p = 0 to len - 1 do
        Tensor.set t i p (float_of_int (Packet.direction_sign trace.(p).Trace.dir))
      done)
    traces;
  t

(* Only the first [input_length] events are read, so only that prefix (a
   zero-copy view) is unpacked. *)
let encode_packed traces =
  encode_batch
    (Array.map (fun pt -> Packed_trace.to_trace (Packed_trace.prefix pt input_length)) traces)

type t = Network.t

(* Two conv/relu/pool blocks then two dense layers — the DF shape.  The
   layer order, shapes and RNG draw order are identical to
   [build_reference], so the same seed yields the float32 rounding of the
   reference net's weights (what the parity gates rely on). *)
let shape ~n_classes =
  let l1 = input_length in
  let c1 = Layer.conv_output_length ~length:l1 ~kernel:8 in
  let p1 = Layer.pool_output_length ~length:c1 ~factor:3 in
  let c2 = Layer.conv_output_length ~length:p1 ~kernel:8 in
  let p2 = Layer.pool_output_length ~length:c2 ~factor:3 in
  (l1, c1, p1, c2, p2, n_classes)

let build ~rng ~n_classes =
  let l1, c1, p1, c2, p2, _ = shape ~n_classes in
  Network.create
    [
      Layer.conv1d ~rng ~in_channels:1 ~out_channels:8 ~kernel:8 ~length:l1;
      Layer.relu ~size:(8 * c1);
      Layer.maxpool1d ~channels:8 ~length:c1 ~factor:3;
      Layer.conv1d ~rng ~in_channels:8 ~out_channels:16 ~kernel:8 ~length:p1;
      Layer.relu ~size:(16 * c2);
      Layer.maxpool1d ~channels:16 ~length:c2 ~factor:3;
      Layer.dense ~rng ~inputs:(16 * p2) ~outputs:64;
      Layer.relu ~size:64;
      Layer.dense ~rng ~inputs:64 ~outputs:n_classes;
    ]

(* The pre-batching build, verbatim, on the kept-as-oracle engine. *)
let build_reference ~rng ~n_classes =
  let module L = Reference.Layer in
  let l1, c1, p1, c2, p2, _ = shape ~n_classes in
  Reference.Network.create
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

let train ?(epochs = 30) ?(seed = 0) ?pool ?on_epoch ~n_classes ~xs ~labels () =
  let rng = Rng.create seed in
  let net = build ~rng ~n_classes in
  Network.fit net ~rng ~xs ~labels ~epochs ?pool ?on_epoch ();
  net

let predict_m = Network.predict_m
let accuracy_m = Network.accuracy_m
