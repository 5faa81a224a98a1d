(* The repo benchmark (see perfbench/README.md):

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload and prints, as the last line of stdout, one JSON
   object with the output-check verdict and either the end-to-end
   metrics (--trace 0) or the per-layer metrics (--trace 1).  Progress
   and warnings go to stderr. *)

open Common

(* Every metric of the benchmark, by name, with its unit.  Each workload
   reports every end-to-end metric; a per-layer metric of a layer the
   workload bypasses reads 0. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("op_p50_ms", "ms");
    ("op_tail_ms", "ms");
    ("ops_per_s", "1/s");
    ("solved_frac", "ratio");
  ]

let per_layer =
  [
    ("serve.ping_p50_us", "us");
    ("serve.ping_tail_us", "us");
    ("serve.queue_depth_max", "count");
    ("serve.overloads", "count");
    ("serve.timeouts", "count");
    ("serve.a_sent", "count");
    ("serve.a_ok", "count");
    ("serve.a_failed", "count");
    ("serve.b_sent", "count");
    ("serve.b_ok", "count");
    ("serve.b_failed", "count");
    ("serve.slo_miss_frac", "ratio");
    ("serve.sat_rps", "1/s");
    ("serve.req_p50_ms.pbqp_rl", "ms");
    ("serve.req_p50_ms.ate_rl", "ms");
    ("serve.req_p50_ms.pbqp_scholz", "ms");
    ("infer.rows_per_batch", "rows");
    ("infer.wait_p50_us", "us");
    ("infer.wait_p99_us", "us");
    ("infer.timeout_flush_frac", "ratio");
    ("cache.hit_rate", "ratio");
    ("cache.lookups", "count");
    ("cache.evictions", "count");
    ("pvnet.evals_per_op", "count");
    ("pvnet.prepare_us_per_leaf", "us");
    ("pvnet.trunk_us_per_row", "us");
    ("pvnet.train_step_ms", "ms");
    ("search.nodes_per_op", "count");
    ("search.backtracks", "count");
    ("search.solve_ms", "ms");
    ("search.us_per_node", "us");
    ("gcn.evals_per_solve", "count");
    ("gcn.forward_ms_per_solve", "ms");
    ("gcn.share_of_solve", "ratio");
    ("scholz.reduce_ms", "ms");
    ("cir.lower_ms", "ms");
    ("cir.liveness_ms", "ms");
    ("cir.alloc_ms", "ms");
    ("cir.rewrite_ms", "ms");
    ("cir.msim_ms", "ms");
    ("cir.spills", "count");
    ("cir.speedup_geo_vs_fast", "x");
    ("ate.analyze_ms", "ms");
    ("ate.build_ms", "ms");
    ("ate.translate_ms", "ms");
    ("train.episode_ms", "ms");
    ("train.episodes_failed", "count");
    ("train.replay_size", "count");
    ("train.iterations", "count");
    ("harness.gen_lag_p99_ms", "ms");
    ("harness.gen_lag_flag", "flag");
    ("harness.fail_frac", "ratio");
    ("harness.spans", "count");
    ("harness.trace_overhead_frac", "ratio");
  ]

let workloads =
  [
    ("serve_zipf", Serve_zipf.run);
    ("batch_corpus", Batch_corpus.run);
    ("selfplay_train", Selfplay_train.run);
  ]

(* The untraced run leaves its op_p50_ms behind; the traced run of the
   same workload reports its own gap to it as the tracing overhead. *)
let last_path workload = Filename.concat work_dir ("last-" ^ workload ^ ".txt")

let save_untraced workload p50 =
  Out_channel.with_open_text (last_path workload) (fun oc ->
      Printf.fprintf oc "%.17g\n" p50)

let load_untraced workload =
  match In_channel.with_open_text (last_path workload) In_channel.input_line with
  | Some line -> float_of_string_opt (String.trim line)
  | None | (exception Sys_error _) -> None

let usage () =
  prerr_endline
    "usage: perfbench --workload serve_zipf|batch_corpus|selfplay_train \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int_arg key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  let seed = int_arg "seed" and seconds = int_arg "seconds" in
  let traced =
    match int_arg "trace" with 0 -> false | 1 -> true | _ -> usage ()
  in
  let run = match List.assoc_opt workload workloads with Some f -> f | None -> usage () in
  if seconds < 1 then usage ();
  ensure_work_dir ();
  let tr = if traced then Some (Trace.create ()) else None in
  let r, layers = run ~seed ~seconds ~tr in
  let value table name =
    Option.value (List.assoc_opt name table) ~default:0.0
  in
  let metrics =
    if not traced then begin
      save_untraced workload (value r.end_to_end "op_p50_ms");
      List.map (fun (name, u) -> (name, u, value r.end_to_end name)) end_to_end
    end
    else begin
      let t = Option.get tr in
      let measured = layers () in
      let overhead =
        match load_untraced workload with
        | Some base -> ratio (value r.end_to_end "op_p50_ms" -. base) base
        | None ->
            (* no untraced run on record: the recorder's own cost *)
            note "%s: no untraced run on record; overhead from span cost" workload;
            let spans = float_of_int t.Trace.next_id in
            ratio (spans *. Trace.record_cost_s ()) r.timed_s
      in
      let trace_file =
        Filename.concat work_dir (Printf.sprintf "trace-%s-%d.jsonl" workload seed)
      in
      Trace.write t trace_file;
      note "%s: %d spans written to %s" workload t.Trace.next_id trace_file;
      let all =
        measured
        @ [
            ("harness.fail_frac", ratio (float_of_int r.failed) (float_of_int r.attempted));
            ("harness.spans", float_of_int t.Trace.next_id);
            ("harness.trace_overhead_frac", overhead);
          ]
      in
      List.map (fun (name, u) -> (name, u, value all name)) per_layer
    end
  in
  List.iter
    (fun (name, u, v) -> note "  %-32s %14.4f %s" name v u)
    metrics;
  print_endline
    (json_line ~correct:r.correct ~attempted:(max 1 r.attempted) ~failed:r.failed
       metrics)
