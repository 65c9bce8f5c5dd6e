(* Seeded inputs owned by the benchmark: sink sets are draws from the
   135K TI candidate sites ({!Suite.Gen_ti}), so the library generators
   keep their fixed seeds and the program only ever sees the result. *)

module F = Suite.Format_io

(* Every candidate site, with its generator-assigned pin cap. *)
let sites () = Suite.Gen_ti.generate Suite.Gen_ti.candidate_count

(* An independent stream per (seed, purpose, index). *)
let rng ~seed purpose index = Suite.Rng.create (Hashtbl.hash (seed, purpose, index))

(* [draw sites rng ~n ~name] — [n] distinct sites chosen uniformly (a
   partial Fisher–Yates shuffle over the site indices, with only the
   displaced positions stored, so a draw costs O(n), not O(sites)), kept
   in site order so the instance is a set, not a sequence. *)
let draw (sites : F.t) rng ~n ~name =
  let total = Array.length sites.F.sinks in
  if n < 2 || n > total then
    invalid_arg (Printf.sprintf "Inputs.draw: n=%d outside [2, %d]" n total);
  let displaced = Hashtbl.create (2 * n) in
  let at i = Option.value ~default:i (Hashtbl.find_opt displaced i) in
  (* Array.init applies its function to 0, 1, ... in order. *)
  let chosen =
    Array.init n (fun i ->
        let j = i + Suite.Rng.int rng (total - i) in
        let picked = at j in
        Hashtbl.replace displaced j (at i);
        picked)
  in
  Array.sort compare chosen;
  { sites with F.name; sinks = Array.map (Array.get sites.F.sinks) chosen }

(* Scratch directory for specs, sockets and traces; created on demand. *)
let rec ensure_dir d =
  if not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let write_spec ~dir (b : F.t) =
  let path = Filename.concat dir (b.F.name ^ ".cts") in
  F.write_file path b;
  path
