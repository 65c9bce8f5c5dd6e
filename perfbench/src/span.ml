(* In-memory span recorder for the traced run. Spans are recorded by the
   benchmark around the public calls it makes (and, for flow steps,
   reconstructed from the [on_step] entries the flow hands back); nothing
   is recorded inside the library. *)

type span = {
  id : int;
  group : int;        (** every span of one flow or request shares it *)
  parent : int option;
  name : string;
  start : float;      (** {!Core.Monoclock} seconds *)
  stop : float;
  counts : (string * float) list;
}

(* Single-threaded: every span is recorded from the benchmark's main
   thread ([on_step] runs on the caller's thread; serve spans are
   recorded after the client threads have joined). *)
type t = { mutable spans : span list; mutable next_id : int; mutable next_group : int }

let create () = { spans = []; next_id = 0; next_group = 0 }
let now = Core.Monoclock.now

let new_group t =
  t.next_group <- t.next_group + 1;
  t.next_group - 1

let reserve t =
  t.next_id <- t.next_id + 1;
  t.next_id - 1

let record t span = t.spans <- span :: t.spans

let add t ~group ?parent ?(counts = []) ~start ~stop name =
  let id = reserve t in
  record t { id; group; parent; name; start; stop; counts };
  id

(* [time t ~group name f] records a span around [f id], where [id] is the
   span's own id (the parent of any span [f] records). *)
let time t ~group ?parent name f =
  let id = reserve t in
  let start = now () in
  let r = f id in
  record t { id; group; parent; name; start; stop = now (); counts = [] };
  r

let spans t = List.rev t.spans
let duration s = s.stop -. s.start
let find t id = List.find (fun s -> s.id = id) t.spans
let children t id = List.filter (fun s -> s.parent = Some id) (spans t)

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max lo a and b = Float.min hi b in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (total +. (b -. a), b) else (total, reach))
      (0., neg_infinity) clipped
  in
  total

(* A span's self time: its duration minus the part of its interval that
   its child spans cover. *)
let self_time t s =
  duration s
  -. covered ~lo:s.start ~hi:s.stop
       (List.map (fun c -> (c.start, c.stop)) (children t s.id))

let write_jsonl t path =
  let origin = List.fold_left (fun m s -> Float.min m s.start) infinity t.spans in
  let line s =
    Out.obj
      ([ ("id", string_of_int s.id); ("group", string_of_int s.group);
         ("parent", Option.fold ~none:"null" ~some:string_of_int s.parent);
         ("name", Out.str s.name); ("start_s", Out.number (s.start -. origin));
         ("end_s", Out.number (s.stop -. origin));
         ("self_s", Out.number (self_time t s)) ]
      @ List.map (fun (k, v) -> (k, Out.number v)) s.counts)
    ^ "\n"
  in
  Core.Persist.write_atomic path (String.concat "" (List.map line (spans t)))
