(* Seeded property tests. Every qcheck case draws from its own fresh
   random state seeded by QCHECK_SEED (default below), so a failing case
   replays exactly with the same seed, whatever other tests ran first or
   were filtered out. *)

let default_seed = 20100308

let seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> default_seed

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t
