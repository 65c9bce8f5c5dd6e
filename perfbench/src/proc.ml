(* What the benchmark reads about its own process and its host.

   Every timing the end-to-end metrics report is read on the process CPU
   clock: user plus system seconds of all the process's threads. A shared
   host takes the VM's CPUs away for minutes at a time (28-38% of the
   CPU time of both cores in the stretches measured, in the [steal]
   column of /proc/stat); the wall clock runs on through that and the
   same work then reads up to 2.5 times as long, while the CPU clock
   stops. *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The process's peak resident set, [VmHWM] from /proc/self/status, in
   MB; NaN where that file does not exist. *)
let peak_rss_mb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> nan
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %f kB" (fun kb -> kb /. 1024.)
          | Some _ -> scan ()
        in
        scan ())
  with Sys_error _ -> nan

(* The host's CPU ticks so far, all cores: (stolen, total). Zeros where
   /proc/stat does not exist. *)
let ticks () =
  try
    In_channel.with_open_text "/proc/stat" (fun ic ->
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"cpu " l ->
          let fields =
            List.filter_map float_of_string_opt
              (List.filter (( <> ) "") (String.split_on_char ' ' l))
          in
          (* user nice system idle iowait irq softirq steal ... *)
          let total = List.fold_left ( +. ) 0. (List.filteri (fun i _ -> i < 8) fields) in
          ((match List.nth_opt fields 7 with Some s -> s | None -> 0.), total)
        | _ -> (0., 0.))
  with Sys_error _ -> (0., 0.)

(* The share of the host's CPU time stolen between two [ticks] readings. *)
let steal_share (s0, t0) (s1, t1) = if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.
