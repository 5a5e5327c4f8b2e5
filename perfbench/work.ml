(* The four workloads: their inputs, generated from the workload seed, and
   one job of each run through the public entry point users call, with the
   job's verdict checked.  A job is one simulation run. *)

module H = Thc_replication.Harness
module L = Thc_workload.Loadtest
module W = Thc_workload.Workload
module CH = Thc_check.Harness

type workload = Smr_long | Loadtest_mix | Explore_geo3 | Srb_rounds

let workloads =
  [
    ("smr-long", Smr_long);
    ("loadtest-mix", Loadtest_mix);
    ("explore-geo3", Explore_geo3);
    ("srb-rounds", Srb_rounds);
  ]

let uniform_links = Thc_sim.Delay.Uniform (50L, 500L)

let geo3 =
  match Thc_network.Model.of_string "geo3" with
  | Ok m -> m
  | Error e -> failwith e

let harness name =
  match CH.find name with
  | Some h -> h
  | None -> failwith ("no explorer harness " ^ name)

(* Round-robin order of explore-geo3: the three protocols under crash and
   partition faults only, then one attack on each kind of trusted hardware
   (trusted counters, SWMR registers). *)
let explore_harnesses =
  lazy
    (Array.map harness
       [| "minbft"; "pbft"; "ubft"; "minbft-equivocation"; "ubft-register-forge" |])

let srb_harness = lazy (harness "srb-uni")

type input =
  | Smr of H.setup
  | Point of L.point
  | Explore of { h : CH.t; seed : int64 }
  | Srb of { seed : int64; script : Thc_sim.Adversary.t }

(* Jobs per pass.  A run measures whole passes, so every pass mixes its
   job kinds in the same proportion (loadtest-mix: one point per protocol;
   explore-geo3: one Pool.map over 60 seeds, 12 per harness). *)
let pass_size = function
  | Smr_long -> 1
  | Loadtest_mix -> 3
  | Explore_geo3 -> 60
  | Srb_rounds -> 10

(* Passes over which the deterministic allocation and heap figures are
   taken: enough jobs that their mean barely moves from seed to seed, few
   enough that every run completes them. *)
let counted_passes = function
  | Smr_long | Loadtest_mix | Srb_rounds -> 3
  | Explore_geo3 -> 40

(* Passes of distinct inputs in a run.  A run runs these passes once,
   then cycles over them again until its time is up, so the jobs it
   checks, and with them [attempted] and [failed], depend on the seed
   alone and not on how many passes the machine fitted in; every repeat
   must reproduce its first verdict.  At least [counted_passes]; about a
   quarter of a 25 s run on a 2-core machine. *)
let distinct_passes = function
  | Smr_long -> 10
  | Loadtest_mix -> 5
  | Explore_geo3 -> 100
  | Srb_rounds -> 10

(* 4 clients x 200 requests: long enough that the post-run folds, which
   grow with the square of the trace, dominate the job; short enough that
   a run holds some fifty jobs, whose median is steadier than that of the
   dozen 4 x 400 jobs that would fit. *)
let smr_setup ~seed =
  H.Setup.make ~protocol:H.Minbft ~f:1 ~ops:200 ~clients:4 ~delay:uniform_links
    ~seed ()

let loadtest_spec =
  {
    W.clients = 4;
    requests_per_client = 400;
    arrival = W.Open_poisson { rate_rps = 1600.0 };
    keys = W.Keys_zipf { keys = 64; theta = 0.99 };
    mix = W.default_mix;
  }

let loadtest_protocols = [| H.Minbft; H.Ubft; H.Pbft |]

let point ~protocol ~seed =
  {
    L.protocol;
    f = 1;
    spec = loadtest_spec;
    batch = 4;
    seed;
    delay = uniform_links;
    network = None;
  }

(* Job [j] of pass [p] under workload seed [seed].  Every job of a run has
   its own simulation seed. *)
let job_seed ~seed ~pass j w =
  Int64.(add (mul seed 1_000_000L) (of_int ((pass * pass_size w) + j + 1)))

(* Job [j] of a pass; [j] picks the job kind round-robin. *)
let input w ~j ~seed =
  match w with
  | Smr_long -> Smr (smr_setup ~seed)
  | Loadtest_mix ->
    Point (point ~protocol:loadtest_protocols.(j mod Array.length loadtest_protocols) ~seed)
  | Explore_geo3 ->
    let hs = Lazy.force explore_harnesses in
    Explore { h = hs.(j mod Array.length hs); seed }
  | Srb_rounds ->
    Srb { seed; script = Thc_check.Sweep.script_for (Lazy.force srb_harness) ~seed () }

let pass_inputs w ~seed ~pass =
  List.init (pass_size w) (fun j -> input w ~j ~seed:(job_seed ~seed ~pass j w))

(* The untimed warm-up job of every set-up: one job outside every pass,
   the same whatever the workload seed, so that set-up time does not
   depend on which job the seed happens to draw. *)
let warmup_input w = input w ~j:0 ~seed:999_999L

(* ---- verdicts ---------------------------------------------------------- *)

type verdict = {
  fail : string option;  (** Why the job failed; [None] when it passed. *)
  completed : int;  (** Client requests, or SRB deliveries, completed. *)
  messages : int;
  end_us : int64;  (** Virtual end time. *)
  events : int;  (** Engine events; -1 where the public call hides them. *)
  lat_p50 : float;  (** Exact virtual-time client latency, µs; 0 if none. *)
  lat_p99 : float;
}

let passed ~completed ~messages ~end_us ~events ~lat_p50 ~lat_p99 =
  { fail = None; completed; messages; end_us; events; lat_p50; lat_p99 }

let failing reason v = { v with fail = Some reason }

(* The checks every replicated-service job passes: no safety or
   determinism violation, no liveness violation, every request served. *)
let checked ~who v ~safety ~liveness ~offered =
  if safety > 0 then
    failing (Printf.sprintf "%s: %d safety/determinism violation(s)" who safety) v
  else if liveness > 0 then
    failing (Printf.sprintf "%s: %d liveness violation(s)" who liveness) v
  else if v.completed < offered then
    failing (Printf.sprintf "%s: completed %d of %d requests" who v.completed offered) v
  else v

let explore_verdict (h : CH.t) ~seed (r : CH.report) =
  let v =
    passed ~completed:0 ~messages:r.messages ~end_us:r.duration_us ~events:(-1)
      ~lat_p50:0.0 ~lat_p99:0.0
  in
  match (h.expect, r.verdict) with
  | CH.Broken, Thc_check.Monitor.Pass ->
    failing (Printf.sprintf "%s seed %Ld: known-bad harness passed" h.name seed) v
  | CH.Clean, Thc_check.Monitor.Fail _ ->
    failing
      (Printf.sprintf "%s seed %Ld: %s" h.name seed
         (String.concat "," (Thc_check.Monitor.monitors_of r.verdict)))
      v
  | _ -> v

let srb_verdict ~seed (r : Thc_broadcast.Srb_harness.report) =
  let v =
    passed ~completed:r.delivered ~messages:r.messages ~end_us:r.duration_us
      ~events:(-1) ~lat_p50:0.0 ~lat_p99:0.0
  in
  match Thc_check.Monitor.(monitors_of (verdict (of_srb r.violations))) with
  | [] -> v
  | monitors -> failing (Printf.sprintf "srb-uni seed %Ld: %s" seed (String.concat "," monitors)) v

let srb_values = 3

let run_public = function
  | Smr s ->
    let o = H.run s in
    checked ~who:(Thc_replication.Protocol.to_string s.protocol)
      (passed ~completed:o.completed ~messages:o.messages ~end_us:o.duration_us
         ~events:o.events ~lat_p50:o.latency.p50 ~lat_p99:o.latency.p99)
      ~safety:(List.length o.safety_violations)
      ~liveness:(List.length o.liveness_violations)
      ~offered:(s.ops * s.clients)
  | Point p ->
    let r = L.run_point p in
    checked ~who:(L.protocol_name p.protocol)
      (passed ~completed:r.completed ~messages:r.messages ~end_us:r.duration_us
         ~events:(-1) ~lat_p50:r.latency.p50 ~lat_p99:r.latency.p99)
      ~safety:r.safety_violations ~liveness:0 ~offered:r.offered
  | Explore { h; seed } ->
    explore_verdict h ~seed (Thc_check.Sweep.run_one h ~network:geo3 ~seed ()).report
  | Srb { seed; script } ->
    srb_verdict ~seed (Thc_broadcast.Srb_harness.run_uni ~seed ~script ~values:srb_values ())

(* ---- timed jobs -------------------------------------------------------- *)

type job = {
  ms : float;  (** Wall time of the public call. *)
  words : float;  (** Minor-heap words it allocated. *)
  heap_words : int;
      (** Major-heap high-water mark of the process that ran it, above the
          heap that process started from. *)
  start : float;  (** Absolute wall-clock start (seconds), for pool waits. *)
  verdict : verdict;
}

let no_verdict reason =
  {
    fail = Some reason;
    completed = 0;
    messages = 0;
    end_us = 0L;
    events = -1;
    lat_p50 = 0.0;
    lat_p99 = 0.0;
  }

(* [base] is the major heap the job's process started from; by default the
   heap when the job starts. *)
let timed ?(base = (Gc.quick_stat ()).heap_words) input =
  let start = Unix.gettimeofday () in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let verdict =
    try run_public input with e -> no_verdict ("exception: " ^ Printexc.to_string e)
  in
  let t1 = Clock.now_ns () in
  let words = Gc.minor_words () -. w0 in
  {
    ms = float_of_int (t1 - t0) /. 1e6;
    words;
    heap_words = (Gc.quick_stat ()).top_heap_words - base;
    start;
    verdict;
  }

let failed_job reason =
  { ms = 0.0; words = 0.0; heap_words = 0; start = 0.0; verdict = no_verdict reason }

(* [f ()] in a child process forked for it; [None] if the child dies.  The
   child starts from this process's heap as it is, not from a heap that
   earlier jobs have grown and fragmented, so a job's time does not depend
   on how many jobs ran before it. *)
let forked f =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    (try
       let oc = Unix.out_channel_of_descr wr in
       Marshal.to_channel oc (f ()) [];
       close_out oc
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r = try Some (Marshal.from_channel ic) with End_of_file | Failure _ -> None in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    r

(* One job in a child forked for it. *)
let isolated input =
  match forked (fun () -> (timed input : job)) with
  | Some j -> j
  | None -> failed_job "job process died"

let pool_jobs = 2

(* One pass.  explore-geo3 fans its seeds over the process pool, with
   allocation and heap measured inside the worker (each worker starts from
   this process's heap, and its high-water mark covers every seed it has
   run so far); a key whose worker died comes back as a failed job. *)
let run_pass w inputs =
  match w with
  | Explore_geo3 ->
    let base = (Gc.quick_stat ()).heap_words in
    List.map
      (function Ok j -> j | Error e -> failed_job ("pool: " ^ e))
      (Thc_exec.Pool.map ~jobs:pool_jobs (timed ~base) inputs)
  | Smr_long | Loadtest_mix | Srb_rounds -> List.map isolated inputs
