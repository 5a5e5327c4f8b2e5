(* Golden-trace equivalence suite.

   Four representative runs — one per driver family (explore, attack,
   loadtest, bench S1 cell) — were recorded as JSONL engine traces under
   test/corpus/golden/ BEFORE the engine hot-path rewrite (calendar queue +
   arena events).  Three more — a PBFT and a uBFT harness run and a
   closed-loop uBFT loadtest point — were recorded before the per-protocol
   cluster builders were merged into Thc_replication.Cluster.  This suite
   regenerates each run at the same seed and asserts the trace is
   byte-for-byte identical to the recording, turning "the rewritten code
   is observationally identical" from a hope into a checked property.

   Regeneration goes through Thc_exec.Pool, so THC_GOLDEN_JOBS=2 also
   proves the traces survive fork/marshal worker boundaries unchanged
   (CI runs the suite at both --jobs 1 and --jobs 2).

   To re-record after an INTENTIONAL observable change (a new trace entry
   kind, a protocol change — never a silent engine regression):

     dune exec test/test_engine_golden.exe -- --record test/corpus/golden *)

module H = Thc_replication.Harness
module W = Thc_workload.Workload
module L = Thc_workload.Loadtest

let fast = Thc_sim.Delay.Uniform (50L, 500L)

(* The explore driver's minbft harness shape (lib/check/harness.ml): f = 1,
   6 ops, and an admissible random adversary script drawn from the same
   profile the sweep driver uses (n = 3, one crash, one partition episode,
   200 ms horizon). *)
let explore_trace () =
  let script =
    Thc_sim.Adversary.random
      (Thc_util.Rng.create 42L)
      ~n:3 ~horizon:200_000L ~crash_budget:1 ~partition_budget:1 ()
  in
  snd
    (H.run_export
       (H.Setup.make ~protocol:H.Minbft ~f:1 ~ops:6 ~delay:fast
          ~scenario:(H.Scripted script) ~seed:42L ()))

(* The attack driver's flagship cell: equivocation against attested MinBFT
   at the catalog's default seed. *)
let attack_trace () =
  snd (Thc_byz.Attack.run_export ~seed:1L ~attack:Thc_byz.Attack.Equivocate ())

(* One loadtest sweep point: minbft, Poisson open loop, Zipf keys,
   batch 4 — the S3 table's amortization cell. *)
let loadtest_trace () =
  snd
    (L.run_point_export
       {
         L.protocol = L.Minbft;
         f = 1;
         batch = 4;
         seed = 29L;
         delay = fast;
         network = None;
         spec =
           {
             W.clients = 4;
             requests_per_client = 20;
             arrival = W.Open_poisson { rate_rps = 400.0 };
             keys = W.Keys_zipf { keys = 64; theta = 0.99 };
             mix = W.default_mix;
           };
       })

(* The bench S1 grid's (minbft, f=1, fault-free) cell at its table seed. *)
let bench_s1_trace () =
  snd (H.run_export (H.Setup.make ~protocol:H.Minbft ~f:1 ~seed:17L ()))

(* PBFT under a crashed view-0 leader: the view change is on the path. *)
let pbft_trace () =
  snd
    (H.run_export
       (H.Setup.make ~protocol:H.Pbft ~f:1 ~ops:6 ~scenario:(H.Crash_leader 12_000L)
          ~seed:23L ()))

(* uBFT fault-free: register appends, doorbells and truncation. *)
let ubft_trace () =
  snd (H.run_export (H.Setup.make ~protocol:H.Ubft ~f:1 ~ops:6 ~seed:31L ()))

(* A closed-loop uBFT loadtest point: the Traffic.closed_loop client. *)
let closed_trace () =
  snd
    (L.run_point_export
       {
         L.protocol = L.Ubft;
         f = 1;
         batch = 2;
         seed = 37L;
         delay = fast;
         network = None;
         spec =
           {
             W.clients = 2;
             requests_per_client = 8;
             arrival = W.Closed { window = 2; think_us = 200L };
             keys = W.Keys_zipf { keys = 16; theta = 0.99 };
             mix = W.default_mix;
           };
       })

let corpus =
  [
    ("explore", explore_trace);
    ("attack", attack_trace);
    ("loadtest", loadtest_trace);
    ("bench_s1", bench_s1_trace);
    ("pbft", pbft_trace);
    ("ubft", ubft_trace);
    ("closed", closed_trace);
  ]

let jobs () =
  match Sys.getenv_opt "THC_GOLDEN_JOBS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 1)
  | None -> 1

(* Regenerate every corpus trace, optionally across forked workers. *)
let regenerate () =
  let results =
    Thc_exec.Pool.map ~jobs:(jobs ()) (fun (_, f) -> f ()) corpus
  in
  List.map2
    (fun (name, _) r ->
      match r with
      | Ok trace -> (name, trace)
      | Error e -> failwith (Printf.sprintf "golden %s: worker failed: %s" name e))
    corpus results

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let record dir =
  List.iter
    (fun (name, trace) ->
      let path = Filename.concat dir (name ^ ".jsonl") in
      write_file path trace;
      Printf.printf "recorded %s (%d bytes)\n%!" path (String.length trace))
    (regenerate ())

(* Byte-level diff location so a mismatch reports where the divergence
   starts (line number + byte offset), not just "differs". *)
let first_divergence a b =
  let n = min (String.length a) (String.length b) in
  let rec go i line =
    if i >= n then (i, line)
    else if a.[i] <> b.[i] then (i, line)
    else go (i + 1) (if a.[i] = '\n' then line + 1 else line)
  in
  go 0 1

(* Under `dune runtest` the cwd is the sandboxed test directory; under
   `dune exec test/test_engine_golden.exe` it is the workspace root. *)
let corpus_dir () =
  List.find Sys.file_exists [ "corpus/golden"; "test/corpus/golden" ]

let check_golden name regenerate () =
  let path = Filename.concat (corpus_dir ()) (name ^ ".jsonl") in
  let expected = read_file path in
  let got = regenerate () in
  if not (String.equal expected got) then begin
    let off, line = first_divergence expected got in
    Alcotest.failf
      "golden trace %s diverges at line %d (byte %d): recorded %d bytes, \
       regenerated %d bytes"
      name line off (String.length expected) (String.length got)
  end

let golden_tests =
  let traces = lazy (regenerate ()) in
  List.map
    (fun (name, _) ->
      Alcotest.test_case
        (Printf.sprintf "%s trace is byte-identical" name)
        `Quick
        (check_golden name (fun () -> List.assoc name (Lazy.force traces))))
    corpus

let () =
  match Sys.argv with
  | [| _; "--record"; dir |] -> record dir
  | _ ->
    Alcotest.run "engine-golden"
      [ (Printf.sprintf "golden (jobs=%d)" (jobs ()), golden_tests) ]
