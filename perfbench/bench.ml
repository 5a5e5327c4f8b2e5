(* Benchmark entry point.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 measures the end-to-end metrics: a closed loop of jobs (one
   job = one simulation run through a public entry point) for S seconds.
   --trace 1 runs the separate traced pass that attributes job time to
   layers.  The last line of standard output is the JSON result. *)

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Every metric is printed by name with its unit; the final line is the
   machine-readable result.  A malformed metric name or a non-finite value
   makes the result incorrect rather than unparseable. *)
let emit ~correct ~attempted ~failed metrics =
  let bad =
    List.filter (fun (name, _, value) -> not (valid_name name && Float.is_finite value)) metrics
  in
  List.iter
    (fun (name, unit_, value) -> Printf.printf "metric %-34s %18.6f %s\n" name value unit_)
    metrics;
  List.iter (fun (name, _, _) -> Printf.printf "self-test: bad metric %S\n" name) bad;
  let body =
    String.concat ","
      (List.map
         (fun (name, unit_, value) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name
             (json_number (if Float.is_finite value then value else 0.0))
             unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (correct && bad = []) attempted failed body

let secs ns = float_of_int ns /. 1e9

(* ---- end-to-end run ------------------------------------------------------ *)

(* Set-up is repeated and its median reported: generating the first pass's
   inputs plus one untimed warm-up job, so work moved out of jobs into
   set-up still shows.  Set-ups repeat until a fixed time is spent (at
   least three, for a median), so a millisecond-long set-up is repeated as
   often as its median needs. *)
let setup_budget_ns = 3_000_000_000

let report_failures jobs =
  let failures = List.filter_map (fun (j : Work.job) -> j.verdict.fail) jobs in
  List.iteri (fun i r -> if i < 20 then Printf.printf "failed job: %s\n" r) failures;
  if List.length failures > 20 then
    Printf.printf "... %d failed jobs in all\n" (List.length failures)

let end_to_end w ~seed ~seconds =
  let warmups = ref [] in
  let rec set_up spent acc =
    if List.length acc >= 3 && spent >= setup_budget_ns then acc
    else begin
      let t0 = Clock.now_ns () in
      ignore (Work.pass_inputs w ~seed ~pass:0);
      warmups := Work.isolated (Work.warmup_input w) :: !warmups;
      let dt = Clock.now_ns () - t0 in
      set_up (spent + dt) (secs dt :: acc)
    end
  in
  let setup_s = Stats.median (set_up 0 []) in
  let t_start = Clock.now_ns () in
  let deadline = t_start + (seconds * 1_000_000_000) in
  (* The distinct passes always run to the end, past the deadline if need
     be, so that the checked jobs do not depend on the machine's speed. *)
  let distinct = Work.distinct_passes w in
  let rec loop pass acc =
    let acc = Work.run_pass w (Work.pass_inputs w ~seed ~pass:(pass mod distinct)) :: acc in
    if pass + 1 < distinct || Clock.now_ns () < deadline then loop (pass + 1) acc
    else List.rev acc
  in
  let passes = loop 0 [] in
  let elapsed = secs (Clock.now_ns () - t_start) in
  let timed_jobs = List.concat passes in
  let pass0 = List.hd passes in
  let counted = List.filteri (fun i _ -> i < Work.counted_passes w) passes in
  let firsts = Array.of_list (List.filteri (fun i _ -> i < distinct) passes) in
  (* Every distinct job is checked once, with one warm-up job. *)
  let all = List.hd !warmups :: List.concat (Array.to_list firsts) in
  let failed = List.filter (fun (j : Work.job) -> j.verdict.fail <> None) all in
  (* The repeated warm-up job and the repeated passes double as a
     determinism check: the same input must give the same verdict and
     counters every time. *)
  let same_verdicts a b =
    List.map (fun (j : Work.job) -> j.verdict) a = List.map (fun (j : Work.job) -> j.verdict) b
  in
  let warmup_repeats =
    List.for_all (fun (j : Work.job) -> j.verdict = (List.hd !warmups).verdict) !warmups
  in
  let pass_repeats = ref true in
  List.iteri
    (fun i pass ->
      if not (same_verdicts pass firsts.(i mod distinct)) then begin
        pass_repeats := false;
        Printf.printf "self-test: pass %d does not repeat pass %d\n" i (i mod distinct)
      end)
    passes;
  if not warmup_repeats then print_endline "self-test: warm-up job is not deterministic";
  let deterministic = warmup_repeats && !pass_repeats in
  let verified =
    List.length (List.filter (fun (j : Work.job) -> j.verdict.fail = None) timed_jobs)
  in
  let times =
    List.filter_map
      (fun (j : Work.job) -> if j.ms > 0.0 then Some j.ms else None)
      timed_jobs
  in
  (* A pass's peak heap is the largest heap any of its processes (a child
     forked for one job, or a pool worker over its share of the seeds)
     grew above the heap it started from; the median over the counted
     passes is reported. *)
  let heap_words =
    Stats.median
      (List.map
         (fun pass ->
           float_of_int (List.fold_left (fun acc (j : Work.job) -> max acc j.heap_words) 0 pass))
         counted)
  in
  Printf.printf "workload %s: %d passes, %d timed jobs in %.3f s\n"
    (fst (List.find (fun (_, x) -> x = w) Work.workloads))
    (List.length passes) (List.length timed_jobs) elapsed;
  Printf.printf "first job times (ms):%s\n"
    (String.concat ""
       (List.filteri (fun i _ -> i < 12)
          (List.map (fun (j : Work.job) -> Printf.sprintf " %.1f" j.ms) timed_jobs)));
  List.iter
    (fun (j : Work.job) ->
      if j.verdict.lat_p50 > 0.0 then
        Printf.printf
          "pass-0 job: completed %d, req_per_s %.1f, sim_p50_us %.1f, sim_p99_us %.1f\n"
          j.verdict.completed
          (float_of_int j.verdict.completed /. (j.ms /. 1e3))
          j.verdict.lat_p50 j.verdict.lat_p99)
    pass0;
  Printf.printf "fail_frac %.6f (%d of %d jobs)\n"
    (Stats.ratio (float_of_int (List.length failed)) (float_of_int (List.length all)))
    (List.length failed) (List.length all);
  report_failures all;
  emit ~correct:deterministic ~attempted:(List.length all)
    ~failed:(List.length failed)
    [
      ("job_ms_p50", "ms", Stats.median times);
      ("job_ms_p90", "ms", Stats.quantile times 0.9);
      ("jobs_per_s", "1/s", float_of_int verified /. elapsed);
      ( "minor_words_per_job",
        "words",
        Thc_util.Stats.mean (List.map (fun (j : Work.job) -> j.words) (List.concat counted)) );
      ("peak_heap_mb", "MiB", heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0);
      ("setup_s", "s", setup_s);
    ]

(* ---- command line -------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := Int64.of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string_opt v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace
    when seconds > 0 && (trace = 0 || trace = 1) -> (
    match List.assoc_opt name Work.workloads with
    | None ->
      prerr_endline ("unknown workload " ^ name);
      exit 2
    | Some w ->
      if trace = 0 then end_to_end w ~seed ~seconds
      else
        let correct, attempted, failed, metrics = Traced.run w ~seed in
        emit ~correct ~attempted ~failed metrics)
  | _ -> usage ()
