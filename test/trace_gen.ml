(* Deterministic random traces for the differential tests against
   [Stob_oracle.Hot_path]: sorted or not, with equal and near-equal (within 1e-7 s)
   timestamps, one or both directions, and sizes on both sides of the
   1200 B split threshold. *)

module Rng = Stob_util.Rng
module Trace = Stob_net.Trace
module Packet = Stob_net.Packet

let gap rng =
  match Rng.int rng 6 with 0 -> 0.0 | 1 -> 5e-8 | 2 -> 1e-7 | 3 -> 1.5e-7 | _ -> Rng.float rng 0.05

(* An unsorted trace still starts with its earliest packet, as the k-FP
   features measure times from the first one. *)
let trace ?(sorted = true) ?(dirs = [| Packet.Incoming; Packet.Outgoing |]) rng n =
  let clock = ref (Rng.float rng 1.0) in
  Array.init n (fun i ->
      let time =
        if sorted then begin
          clock := !clock +. gap rng;
          !clock
        end
        else if i = 0 then 0.0
        else Float.of_int (Rng.int rng 8) *. 0.125
      in
      { Trace.time; dir = Rng.choice rng dirs; size = Rng.choice rng [| 0; 52; 600; 1200; 1201; 1500 |] + Rng.int rng 3 })

(* A mix of every shape: 0-3 packets, long sorted traces, unsorted traces
   with many equal times, and single-direction traces. *)
let corpus ~seed count =
  let rng = Rng.create seed in
  List.init count (fun i ->
      match i mod 5 with
      | 0 -> trace rng (i / 5 mod 4)
      | 1 | 2 -> trace rng (Rng.int rng 200)
      | 3 -> trace ~sorted:false rng (Rng.int rng 60)
      | _ -> trace ~dirs:[| (if i mod 2 = 0 then Packet.Incoming else Packet.Outgoing) |] rng (Rng.int rng 80))

(* Exact rendering: [%h] times, so equal renderings mean equal bits. *)
let render t =
  Array.to_list
    (Array.map (fun e -> Printf.sprintf "%h %d %d" e.Trace.time (Packet.direction_sign e.Trace.dir) e.Trace.size) t)
