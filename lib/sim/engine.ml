type event = { callback : unit -> unit; mutable cancelled : bool }

type event_id = event

exception Livelock of { time : float; events : int }

let () =
  Printexc.register_printer (function
    | Livelock { time; events } ->
        Some
          (Printf.sprintf
             "Stob_sim.Engine.Livelock { time = %g; events = %d } (same-instant event budget \
              exceeded: a callback chain keeps rescheduling at the current instant)"
             time events)
    | _ -> None)

type t = {
  queue : event Timing_wheel.t;
  mutable clock : float;
  mutable live : int;
  mutable processed : int;
  mutable same_instant : int;  (* consecutive events executed at [clock] *)
  mutable same_instant_budget : int;
  mutable probe : (now:float -> unit) option;
}

let default_same_instant_budget = 1_000_000

let create () =
  {
    queue = Timing_wheel.create ();
    clock = 0.0;
    live = 0;
    processed = 0;
    same_instant = 0;
    same_instant_budget = default_same_instant_budget;
    probe = None;
  }

let now t = t.clock

let set_same_instant_budget t budget =
  if budget < 1 then invalid_arg "Engine.set_same_instant_budget: budget must be positive";
  t.same_instant_budget <- budget

let same_instant_budget t = t.same_instant_budget

let set_probe t f = t.probe <- Some f
let clear_probe t = t.probe <- None

let schedule_at t ~time f =
  let time = if time < t.clock then t.clock else time in
  let ev = { callback = f; cancelled = false } in
  Timing_wheel.push t.queue ~time ev;
  t.live <- t.live + 1;
  ev

let schedule t ~delay f =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t ~time:(t.clock +. delay) f

let cancel t ev =
  if not ev.cancelled then begin
    ev.cancelled <- true;
    t.live <- t.live - 1
  end

let rec step t =
  match Timing_wheel.pop t.queue with
  | None -> false
  | Some (time, ev) ->
      (* Cancelled events stay in the queue until popped; skip through them so
         that [step] reports whether real work happened. *)
      if ev.cancelled then step t
      else begin
        (* Same-instant budget: a callback that keeps rescheduling itself
           with zero delay would otherwise spin the engine forever without
           ever advancing the clock. *)
        if t.processed > 0 && time <= t.clock then begin
          t.same_instant <- t.same_instant + 1;
          if t.same_instant > t.same_instant_budget then
            raise (Livelock { time; events = t.same_instant })
        end
        else t.same_instant <- 0;
        t.clock <- time;
        t.live <- t.live - 1;
        t.processed <- t.processed + 1;
        ev.callback ();
        (match t.probe with None -> () | Some f -> f ~now:time);
        true
      end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      let continue = ref true in
      while !continue do
        match Timing_wheel.peek t.queue with
        | None -> continue := false
        | Some (time, ev) ->
            if ev.cancelled then ignore (Timing_wheel.pop t.queue)
            else if time > limit then continue := false
            else ignore (step t)
      done;
      if t.clock < limit then t.clock <- limit

let pending t = t.live
let events_processed t = t.processed
