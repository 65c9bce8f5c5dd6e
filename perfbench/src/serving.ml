(* The serve-mixed workload: a fresh in-process daemon ({!Serve.Server})
   with its default workers and queue bound, driven by a closed loop of
   clients ({!Serve.Client}), each keeping one connection and waiting for
   every reply before sending the next request. *)

module J = Suite.Report.Json
module P = Serve.Protocol

type kind = Cold | Hot | Eval

let kind_name = function Cold -> "cold" | Hot -> "hot" | Eval -> "eval"

(* The three kinds get equal shares: each client sends them in blocks
   of three, one of each, in a seeded order per block, so which kind
   runs beside which on the other client does not lock into a pattern.
   No recorded traffic says what a real mix is; equal shares are an
   assumption, and the per-kind latencies are the figures that do not
   depend on it. A cold request followed by a hot one on the same spec
   is the pairing the CI serve smoke makes (run, then repeat); the
   three-spec hot set replayed round-robin is the CONTANGO_BENCH_SERVE
   harness's. *)
let kinds = [| Cold; Hot; Eval |]
let hot_specs = 3

(* The kind of client [c]'s request [i]. *)
let kind_at ~seed c i =
  let order = Array.copy kinds in
  let rng = Inputs.rng ~seed (Printf.sprintf "mix%d" c) (i / Array.length kinds) in
  for j = Array.length order - 1 downto 1 do
    let k = Suite.Rng.int rng (j + 1) in
    let t = order.(j) in
    order.(j) <- order.(k);
    order.(k) <- t
  done;
  order.(i mod Array.length kinds)

(* The end-to-end quality figures are trimmed means over the first
   this-many cold specs. The loop does not stop before all of them have
   completed, so the figures are fixed by the seed, not by how many
   requests a run happens to complete. *)
let quality_specs = 20

(* Cold and eval requests each go to a spec of their own, so those two
   thirds of the traffic average over many inputs rather than depending
   on the few a seed puts in the hot set. The specs are written during
   set-up, this many of each kind per measured second (at least
   [quality_specs]) — about three times the rate the daemon reaches on a
   2-core host, so the measured loop only sends requests. Should a
   faster daemon use them all up, the loop writes further ones as it
   goes. *)
let fresh_per_second = 5.

type sample = {
  kind : kind;
  spec : string;
  cold_index : int;  (** position in the cold-spec stream; -1 otherwise *)
  latency : float;      (** wall seconds *)
  cpu_latency : float;  (** process CPU seconds spent while it was out *)
  start : float;
  reply : (J.t, string) result;  (** the body of a [Completed] reply *)
}

type env = {
  dir : string;
  seed : int;
  sinks : int;
  sites : Suite.Format_io.t;
  thread : Thread.t;
  addr : Unix.sockaddr;
  hot : string array;              (** spec paths *)
  cold : string array;             (** spec paths, written before the loop *)
  evals : string array;            (** likewise *)
  hot_first : (string * Checks.quality) list;  (** the warm-up reply of each *)
}

let field body path =
  List.fold_left (fun v k -> Option.bind v (J.member k)) (Some body) path |> J.to_float

let num body path = Option.value ~default:nan (field body path)

let quality body =
  { Checks.skew = num body [ "result"; "skew_ps" ]; clr = num body [ "result"; "clr_ps" ];
    eval_runs = num body [ "result"; "eval_runs" ] }

let describe = function
  | Ok (P.Completed { body; _ }) -> Ok body
  | Ok (P.Busy { retry_after_s }) -> Error (Printf.sprintf "busy (retry after %gs)" retry_after_s)
  | Ok (P.Failed { code; detail }) -> Error (Printf.sprintf "failed %s: %s" code detail)
  | Error msg -> Error ("error: " ^ msg)

let run_request spec = P.Run { spec; timeout_s = None; request_key = None }

(* Spec [k] of the cold or eval stream. *)
let fresh_spec ~dir ~seed ~sinks sites purpose k =
  Inputs.write_spec ~dir
    (Inputs.draw sites (Inputs.rng ~seed purpose k) ~n:sinks
       ~name:(Printf.sprintf "%s%d" purpose k))

(* Instance generation (the hot set, and the cold and eval specs for a
   loop of [seconds]), daemon start and the hot-set warm-up; [dir] holds
   the specs and the socket. *)
let setup ~dir ~seed ~sinks ~seconds =
  let sites = Inputs.sites () in
  let hot =
    Array.init hot_specs (fun i ->
        Inputs.write_spec ~dir
          (Inputs.draw sites (Inputs.rng ~seed "hot" i) ~n:sinks
             ~name:(Printf.sprintf "hot%d" i)))
  in
  let pool purpose =
    Array.init
      (max quality_specs (int_of_float (Float.ceil (seconds *. fresh_per_second))))
      (fresh_spec ~dir ~seed ~sinks sites purpose)
  in
  let cold = pool "cold" and evals = pool "eval" in
  let server = Serve.Server.create (Unix.ADDR_UNIX (Filename.concat dir "serve.sock")) in
  let addr = Serve.Server.sockaddr server in
  let thread = Thread.create Serve.Server.serve server in
  if not (Serve.Client.wait_ready addr) then failwith "serve-mixed: daemon did not come up";
  let hot_first =
    List.map
      (fun spec ->
        match describe (Serve.Client.oneshot addr (run_request spec)) with
        | Ok body -> (spec, quality body)
        | Error e -> failwith ("serve-mixed: warm-up " ^ spec ^ ": " ^ e))
      (Array.to_list hot)
  in
  { dir; seed; sinks; sites; thread; addr; hot; cold; evals; hot_first }

let teardown env =
  (match Serve.Client.oneshot env.addr P.Shutdown with Ok _ | Error _ -> ());
  Thread.join env.thread

(* A reply that never comes must not hang the benchmark. *)
let connect addr =
  let fd = Serve.Client.connect addr in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  fd

type loop = {
  samples : sample list;
  elapsed : float;      (** wall seconds from the start to the last reply *)
  cpu : float;          (** process CPU seconds over the same stretch *)
  steal : float;        (** share of the host's CPU time stolen meanwhile *)
  peak_rss_mb : float;  (** the process's peak RSS at [rss_after] replies *)
}

(* The peak RSS is read when this many replies are in — about the first
   [quality_specs] cold ones with their hot and eval companions, which
   every run reaches — so it does not grow with how many requests the
   host's speed let a run complete: the store keeps every cold result. *)
let rss_after = 3 * quality_specs

(* The closed loop: [clients] threads issue requests until [seconds] have
   passed and the first [quality_specs] cold specs have been sent, then
   finish the one in flight. *)
let run_loop env ~clients ~seconds =
  let ticks0 = Proc.ticks () and cpu0 = Proc.cpu_s () in
  let start = Span.now () in
  let stop_at = start +. seconds in
  let next_cold = Atomic.make 0 and next_eval = Atomic.make 0 in
  let pooled purpose pool next =
    let k = Atomic.fetch_and_add next 1 in
    ( (if k < Array.length pool then pool.(k)
       else fresh_spec ~dir:env.dir ~seed:env.seed ~sinks:env.sinks env.sites purpose k),
      k )
  in
  let lock = Mutex.create () in
  let samples = ref [] and replies = ref 0 and peak = ref nan in
  let client c () =
    let fd = ref (connect env.addr) in
    let i = ref 0 in
    while Span.now () < stop_at || Atomic.get next_cold < quality_specs do
      let kind = kind_at ~seed:env.seed c !i in
      let hot = env.hot.((!i / Array.length kinds + c) mod hot_specs) in
      let spec, cold_index, req =
        match kind with
        | Cold ->
          let spec, k = pooled "cold" env.cold next_cold in
          (spec, k, run_request spec)
        | Hot -> (hot, -1, run_request hot)
        | Eval ->
          let spec, _ = pooled "eval" env.evals next_eval in
          (spec, -1, P.Eval { spec; timeout_s = None; request_key = None })
      in
      let t0 = Span.now () and c0 = Proc.cpu_s () in
      let reply =
        describe (try Serve.Client.request !fd req with e -> Error (Printexc.to_string e))
      in
      let latency = Span.now () -. t0 and cpu_latency = Proc.cpu_s () -. c0 in
      Mutex.protect lock (fun () ->
          samples := { kind; spec; cold_index; latency; cpu_latency; start = t0; reply } :: !samples;
          incr replies;
          if !replies = rss_after then peak := Proc.peak_rss_mb ());
      (* A failed exchange may have left the connection unusable. *)
      (match reply with
      | Ok _ -> ()
      | Error _ ->
        Serve.Client.close !fd;
        fd := connect env.addr);
      incr i
    done;
    Serve.Client.close !fd
  in
  List.iter Thread.join (List.init clients (fun c -> Thread.create (client c) ()));
  let elapsed = Span.now () -. start and cpu = Proc.cpu_s () -. cpu0 in
  { samples = List.rev !samples; elapsed; cpu;
    steal = Proc.steal_share ticks0 (Proc.ticks ());
    peak_rss_mb = (if Float.is_nan !peak then Proc.peak_rss_mb () else !peak) }

(* The problems with one sample: anything but [Completed] fails, and a
   hot reply must repeat its spec's warm-up figures ([hot_first])
   exactly. *)
let check hot_first s =
  match s.reply with
  | Error e -> [ Printf.sprintf "%s %s: %s" (kind_name s.kind) s.spec e ]
  | Ok body -> (
    match s.kind with
    | Cold | Eval -> []
    | Hot ->
      let q = quality body in
      let first = List.assoc s.spec hot_first in
      if q = first then []
      else
        [ Printf.sprintf "hot %s: skew/CLR/eval_runs %g/%g/%g differ from the first reply %g/%g/%g"
            s.spec q.Checks.skew q.Checks.clr q.Checks.eval_runs first.Checks.skew
            first.Checks.clr first.Checks.eval_runs ])

(* Every sample's problems, and how many samples failed. *)
let verdict hot_first samples =
  let per = List.map (check hot_first) samples in
  (List.concat per, List.length (List.filter (( <> ) []) per))

let stats env =
  match Serve.Client.oneshot env.addr P.Stats with
  | Ok (P.Completed { body; _ }) -> Some body
  | Ok _ | Error _ -> None

(* Typical quality over the first [quality_specs] cold specs that completed. *)
let cold_quality samples =
  Checks.typical_quality
    (List.filter_map
       (fun s ->
         match (s.kind, s.reply) with
         | Cold, Ok body when s.cold_index < quality_specs -> Some (quality body)
         | _ -> None)
       samples)

let compute_s s = match s.reply with Ok body -> field body [ "result"; "seconds" ] | Error _ -> None

(* Failed requests count as missing every latency percentile. *)
let latency s = match s.reply with Ok _ -> s.latency | Error _ -> infinity
let cpu_latency s = match s.reply with Ok _ -> s.cpu_latency | Error _ -> infinity

let latency_p50 samples k =
  Stats.median (List.filter_map (fun s -> if s.kind = k then Some (latency s) else None) samples)

let cache body k = Option.value ~default:0. (field body [ "cache"; k ])

(* One span per request, each its own group, carrying the reply's
   compute time and cache counts. *)
let record_spans rec_ samples =
  List.iter
    (fun s ->
      let counts =
        match s.reply with
        | Ok body ->
          let compute = Option.value ~default:0. (compute_s s) in
          [ ("compute_s", compute); ("overhead_s", s.latency -. compute) ]
          @ List.map (fun k -> (k, cache body k))
              [ "local_hits"; "local_misses"; "store_hits"; "store_misses" ]
        | Error _ -> [ ("failed", 1.) ]
      in
      ignore
        (Span.add rec_ ~group:(Span.new_group rec_) ~counts ~start:s.start
           ~stop:(s.start +. s.latency) ("serve.request." ^ kind_name s.kind)))
    samples

(* The serve layer's metrics from the loop and a final [stats] body. *)
let layer_metrics loop stats =
  let samples = loop.samples in
  let of_kind k = List.filter (fun s -> s.kind = k) samples in
  let compute k = Stats.median (List.filter_map compute_s (of_kind k)) in
  let runs = of_kind Cold @ of_kind Hot in
  let sum k =
    List.fold_left
      (fun acc s -> match s.reply with Ok body -> acc +. cache body k | Error _ -> acc)
      0. runs
  in
  let hit_ratio hits misses = Stats.ratio (sum hits) (sum hits +. sum misses) in
  let stat k = Option.value ~default:nan (Option.bind stats (fun b -> field b [ k ])) in
  [ ("hot_latency_p50_s", latency_p50 samples Hot);
    ("cold_latency_p50_s", latency_p50 samples Cold);
    ("eval_latency_p50_s", latency_p50 samples Eval);
    ("serve.compute_cold_s", compute Cold); ("serve.compute_hot_s", compute Hot);
    ("serve.compute_eval_s", compute Eval);
    ("serve.overhead_s",
     Stats.median
       (List.filter_map (fun s -> Option.map (fun c -> s.latency -. c) (compute_s s)) samples));
    ("serve.store_hit_ratio", hit_ratio "store_hits" "store_misses");
    ("serve.local_hit_ratio", hit_ratio "local_hits" "local_misses");
    ("serve.busy_rejected", stat "busy_rejected");
    ("serve.deadline_expired", stat "deadline_expired"); ("serve.crashed", stat "crashed");
    ("wall.latency_p50_s", Stats.median (List.map latency samples));
    ("host.steal_share", loop.steal) ]
