(* JSON rendering of measured numbers with all their digits (the
   library's emitter rounds to six). JSON has no infinity or NaN: an
   unavailable figure prints as null, a latency that never arrived as
   the largest double. *)

let number v =
  if Float.is_nan v then "null"
  else if v = infinity then "1.7976931348623157e308"
  else if v = neg_infinity then "-1.7976931348623157e308"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let str s = Suite.Report.Json.to_compact_string (Suite.Report.Json.Str s)

let obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
