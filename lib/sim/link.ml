type 'a t = {
  engine : Engine.t;
  rate_bps : float;
  delay : float;
  queue_capacity : int;
  size : 'a -> int;
  deliver : 'a -> unit;
  waiting : 'a Queue.t;
  mutable waiting_bytes : int;
  mutable busy : bool;
  mutable frames_sent : int;
  mutable bytes_sent : int;
  mutable drops : int;
  mutable tap : (time:float -> 'a -> unit) option;
  mutable on_idle : (unit -> unit) option;
}

let create engine ~rate_bps ~delay ?(queue_capacity = max_int) ~size ~deliver () =
  if rate_bps <= 0.0 then invalid_arg "Link.create: rate must be positive";
  if delay < 0.0 then invalid_arg "Link.create: delay must be non-negative";
  {
    engine;
    rate_bps;
    delay;
    queue_capacity;
    size;
    deliver;
    waiting = Queue.create ();
    waiting_bytes = 0;
    busy = false;
    frames_sent = 0;
    bytes_sent = 0;
    drops = 0;
    tap = None;
    on_idle = None;
  }

let set_tap t f = t.tap <- Some f
let set_on_idle t f = t.on_idle <- Some f

let rec transmit t frame =
  t.busy <- true;
  let bytes = t.size frame in
  (match t.tap with
  | None -> ()
  | Some tap -> tap ~time:(Engine.now t.engine) frame);
  let serialization = float_of_int (bytes * 8) /. t.rate_bps in
  ignore
    (Engine.schedule t.engine ~delay:serialization (fun () ->
         t.frames_sent <- t.frames_sent + 1;
         t.bytes_sent <- t.bytes_sent + bytes;
         (* Propagation happens in parallel with the next serialization. *)
         ignore (Engine.schedule t.engine ~delay:t.delay (fun () -> t.deliver frame));
         match Queue.take_opt t.waiting with
         | None -> (
             t.busy <- false;
             match t.on_idle with None -> () | Some f -> f ())
         | Some next ->
             t.waiting_bytes <- t.waiting_bytes - t.size next;
             transmit t next))

let send t frame =
  if t.busy then begin
    let bytes = t.size frame in
    if t.waiting_bytes + bytes > t.queue_capacity then begin
      t.drops <- t.drops + 1;
      false
    end
    else begin
      Queue.add frame t.waiting;
      t.waiting_bytes <- t.waiting_bytes + bytes;
      true
    end
  end
  else begin
    transmit t frame;
    true
  end

let frames_sent t = t.frames_sent
let bytes_sent t = t.bytes_sent
let drops t = t.drops
let busy t = t.busy
