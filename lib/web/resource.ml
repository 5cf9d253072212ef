type kind = Html | Stylesheet | Script | Font | Image | Media | Api

type t = { kind : kind; size : int; request_bytes : int; think : float }

type page = { html : t; head_wave : t list; body_wave : t list }

let total_bytes page =
  let sum = List.fold_left (fun acc r -> acc + r.size) 0 in
  page.html.size + sum page.head_wave + sum page.body_wave

let object_count page = 1 + List.length page.head_wave + List.length page.body_wave
