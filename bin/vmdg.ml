(* vmdg — command-line driver for the modal Vlasov-Maxwell DG solver.

   Subcommands:
     info          print basis dimensions, kernel sparsity, and which
                   directions run generated kernels, for a layout
     kernel-dump   print a direction's auto-generated unrolled C kernels
                   (paper Fig. 1)
     run           run a registry scenario and check its goldens
     scenarios     list the scenario registry
     serve         run a queue of jobs concurrently with checkpoint
                   preemption: the supervised, checkpointed, resumable run
     submit        talk to a running serve --socket over its Unix socket
     chaos         run a seeded, replayable chaos campaign against the engine
     snapshot-info inspect a checkpoint file
     trace-report  summarize a JSONL profile written with --trace

   vmdg run accepts --trace FILE: tracing (dg_obs) is enabled before the
   app is built so kernel-dispatch counters land in the manifest, and
   every step appends one JSONL record of spans/counters/GC deltas. *)

open Cmdliner

let family_conv =
  Arg.conv
    ( (fun s ->
        try Ok (Dg.Basis.family_of_string s)
        with Invalid_argument m -> Error (`Msg m)),
      fun ppf f -> Fmt.string ppf (Dg.Basis.family_name f) )

(* An int converter that refuses values outside [lo, hi] with a usage
   error naming the range, so they never reach the library's assertions. *)
let int_in ?(hi = max_int) lo =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun n ->
        let bad fmt = Printf.ksprintf (fun m -> Error (`Msg m)) fmt in
        if n >= lo && n <= hi then Ok n
        else if hi = max_int then bad "%d is out of range: must be >= %d" n lo
        else bad "%d is out of range: must be in [%d, %d]" n lo hi)
  in
  Arg.conv (parse, Fmt.int)

(* A float converter that refuses values that are not > 0 (NaN too), as
   [int_in] does for ints. *)
let pos_float =
  let parse s =
    Result.bind (Arg.conv_parser Arg.float s) (fun x ->
        if x > 0.0 then Ok x
        else Error (`Msg (Printf.sprintf "%s is out of range: must be > 0" s)))
  in
  Arg.conv (parse, Fmt.float)

(* Every job of the job files [files_t] names, loaded before anything runs:
   a bad file is a usage error (exit 124) naming the file, the job and
   the field. *)
let jobs_of files_t =
  let load paths =
    List.fold_left
      (fun acc path ->
        Result.bind acc (fun jobs ->
            match Dg.Job.load_file path with
            | Ok js -> Ok (jobs @ js)
            | Error m -> Error (path ^ ": " ^ m)))
      (Ok []) paths
  in
  Term.(
    ret
      (const (fun paths ->
           match load paths with Ok jobs -> `Ok jobs | Error m -> `Error (true, m))
      $ files_t))

let cdim_t =
  Arg.(
    value
    & opt (int_in ~hi:3 1) 1
    & info [ "cdim" ] ~doc:"Configuration-space dimensions, in [1, 3].")

let vdim_t =
  Arg.(
    value
    & opt (int_in ~hi:3 1) 2
    & info [ "vdim" ] ~doc:"Velocity-space dimensions, in [cdim, 3].")

let p_t = Arg.(value & opt (int_in 1) 2 & info [ "p" ] ~doc:"Polynomial order.")

let family_t =
  Arg.(
    value
    & opt family_conv Dg.Basis.Serendipity
    & info [ "basis" ] ~doc:"Basis family: tensor, serendipity (ser), maximal-order (max).")

(* A layout needs at least as many velocity as configuration dimensions. *)
let dims_error ~cdim ~vdim =
  `Error
    ( true,
      Printf.sprintf "--vdim %d is below --cdim %d: need vdim >= cdim" vdim
        cdim )

let make_layout ~cdim ~vdim ~family ~p =
  let pdim = cdim + vdim in
  Dg.Layout.make ~cdim ~vdim ~family ~poly_order:p
    ~grid:
      (Dg.Grid.make ~cells:(Array.make pdim 2)
         ~lower:(Array.make pdim (-1.0))
         ~upper:(Array.make pdim 1.0))

(* --- info ---------------------------------------------------------------- *)

let info_cmd =
  let run cdim vdim p family =
    if vdim < cdim then dims_error ~cdim ~vdim
    else begin
      let lay = make_layout ~cdim ~vdim ~family ~p in
      Fmt.pr "%a@." Dg.Layout.pp lay;
      Fmt.pr "phase DOF/cell N_p = %d, config DOF = %d@."
        (Dg.Layout.num_basis lay) (Dg.Layout.num_cbasis lay);
      for dir = 0 to cdim + vdim - 1 do
        let k = Dg.Tensors.make_dir lay ~dir in
        let fc = k.Dg.Tensors.face in
        (* what this build runs: the selection Solver.create makes *)
        let ops = Dg_vlasov.Sweep.select ~use_generated:true lay k in
        let path =
          match ops.mults with
          | Some mults ->
              Printf.sprintf "generated (%d mults), %s" mults
                (if ops.batch = None then "one cell at a time"
                 else "4-cell batches")
          | None -> "interpreted"
        in
        Fmt.pr
          "dir %d (%s): volume nnz %d, face basis %d, face nnz %d (triple \
           %d), total %d, %s@."
          dir
          (if dir < cdim then "streaming" else "acceleration")
          (Dg.Sparse.t3_nnz k.Dg.Tensors.vol)
          fc.Dg.Tensors.nface (Dg.Tensors.face_nnz fc)
          (Dg.Sparse.t3_nnz fc.Dg.Tensors.triple)
          (Dg.Tensors.dir_nnz k) path
      done;
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "info"
       ~doc:"Basis, kernel-sparsity and kernel-dispatch information")
    Term.(ret (const run $ cdim_t $ vdim_t $ p_t $ family_t))

(* --- kernel-dump --------------------------------------------------------- *)

let kernel_dump_cmd =
  let run cdim vdim p family dir =
    let pdim = cdim + vdim in
    if vdim < cdim then dims_error ~cdim ~vdim
    else if dir < 0 || dir >= pdim then
      `Error
        ( true,
          Printf.sprintf
            "--dir %d is out of range: a %dX%dV layout has directions [0, %d)"
            dir cdim vdim pdim )
    else begin
      (* the emitter's C for this direction, for any layout (also one the
         registry does not hold): volume kernel with its pre-CSE mult
         count, the five face kernels, their tables *)
      print_string (Dg.Codegen.dump_dir (make_layout ~cdim ~vdim ~family ~p) ~dir);
      `Ok ()
    end
  in
  let dir_t =
    Arg.(
      value & opt int 0
      & info [ "dir" ]
          ~doc:"Phase-space direction of the kernel, in [0, cdim+vdim).")
  in
  Cmd.v
    (Cmd.info "kernel-dump"
       ~doc:"Print the auto-generated unrolled C volume and face kernels of a direction (cf. paper Fig. 1)")
    Term.(ret (const run $ cdim_t $ vdim_t $ p_t $ family_t $ dir_t))

(* --- run / scenarios (the registry-driven interface) ---------------------- *)

(* Refuse an unwritable output path (the value of [flag]) before the run
   instead of after it. *)
let writable flag = function
  | None -> Ok ()
  | Some path -> (
      match open_out_gen [ Open_wronly; Open_creat ] 0o644 path with
      | oc ->
          close_out oc;
          Ok ()
      | exception Sys_error m -> Error (flag ^ ": " ^ m))

let run_cmd =
  let run name cells_x cells_v p tend cfl csv trace =
    let entry =
      match Dg.Scenarios.find name with
      | Some e -> e
      | None ->
          Fmt.epr "run: unknown scenario %S; available: %s@." name
            (String.concat ", " Dg.Scenarios.names);
          exit 2
    in
    let knobs =
      Dg.Scenarios.knobs ?cells_x ?cells_v ?poly_order:p ?tend ?cfl ()
    in
    let checked =
      Result.bind (Dg.Scenarios.check_knobs knobs) (fun () ->
          Result.bind (writable "--csv" csv) (fun () ->
              writable "--trace" trace))
    in
    match checked with
    | Error m -> `Error (true, m)
    | Ok () ->
        Fmt.pr "%s (%s, %s): %s@." entry.Dg.Scenarios.name
          (Dg.Scenarios.dims entry)
          (Dg.Scenarios.field_model entry)
          entry.Dg.Scenarios.descr;
        let report = Dg.Scenarios.check ~knobs ?trace entry in
        List.iter print_endline (Dg.Scenarios.report_lines report);
        (match csv with
        | Some path ->
            Dg.Diag.write_csv report.Dg.Scenarios.res.Dg.Scenarios.history
              path;
            Fmt.pr "wrote %s@." path
        | None -> ());
        (match report.Dg.Scenarios.measured_rate with
        | Some g ->
            Fmt.pr "reference: %s (measured gamma %+.4f)@."
              entry.Dg.Scenarios.reference g
        | None -> Fmt.pr "reference: %s@." entry.Dg.Scenarios.reference);
        if not (Dg.Scenarios.passed report) then exit 1;
        `Ok ()
  in
  let name_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:"Registry name (see $(b,vmdg scenarios list)).")
  in
  let opt_int names doc =
    Arg.(value & opt (some int) None & info names ~doc)
  in
  let cells_x_t = opt_int [ "cells-x" ] "cells per configuration dimension" in
  let cells_v_t = opt_int [ "cells-v" ] "cells per velocity dimension" in
  let p_opt_t = opt_int [ "p" ] "polynomial order" in
  let tend_t =
    Arg.(value & opt (some float) None & info [ "tend" ] ~doc:"end time")
  in
  let cfl_t =
    Arg.(value & opt (some float) None & info [ "cfl" ] ~doc:"CFL number")
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the recorded energy/mass history to $(docv).")
  in
  let trace_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a per-step JSONL profile to $(docv) (see trace-report).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a named scenario from the registry and evaluate its golden \
          checks (exit 1 on any failed verdict)")
    Term.(
      ret
        (const run $ name_t $ cells_x_t $ cells_v_t $ p_opt_t $ tend_t $ cfl_t
       $ csv_t $ trace_t))

let scenarios_cmd =
  let list () =
    Fmt.pr "%-14s %-5s %-13s %s@." "NAME" "DIMS" "FIELD" "DESCRIPTION";
    List.iter
      (fun e ->
        Fmt.pr "%-14s %-5s %-13s %s@." e.Dg.Scenarios.name
          (Dg.Scenarios.dims e)
          (Dg.Scenarios.field_model e)
          e.Dg.Scenarios.descr;
        Fmt.pr "%-14s %-5s %-13s golden: %s@." "" "" ""
          e.Dg.Scenarios.reference)
      Dg.Scenarios.all
  in
  let list_cmd =
    Cmd.v
      (Cmd.info "list" ~doc:"List registered scenarios and their goldens")
      Term.(const list $ const ())
  in
  Cmd.group
    (Cmd.info "scenarios" ~doc:"Inspect the scenario registry")
    [ list_cmd ]

(* --- snapshot-info -------------------------------------------------------- *)

let snapshot_info_cmd =
  let field_stats i f =
    let g = Dg.Field.grid f in
    let mn = ref infinity and mx = ref neg_infinity and ss = ref 0.0 in
    let n = ref 0 in
    Dg.Grid.iter_cells g (fun _ c ->
        let base = Dg.Field.offset f c in
        for k = 0 to Dg.Field.ncomp f - 1 do
          let v = (Dg.Field.data f).(base + k) in
          if v < !mn then mn := v;
          if v > !mx then mx := v;
          ss := !ss +. (v *. v);
          incr n
        done);
    Fmt.pr "field %d: %a@." i Dg.Grid.pp g;
    Fmt.pr "  ncomp = %d, %d cells; coefficients: min %.6g, max %.6g, \
            rms %.6g@."
      (Dg.Field.ncomp f) (Dg.Grid.num_cells g) !mn !mx
      (sqrt (!ss /. float_of_int (max 1 !n)))
  in
  let run path =
    match Dg.Checkpoint.read path with
    | exception e ->
        let why = match e with Failure m -> m | e -> Printexc.to_string e in
        Fmt.epr "snapshot-info: %s: %s@." path why;
        exit 1
    | fields, step, time ->
        Fmt.pr "step %d, time %.17g, %d fields@." step time
          (List.length fields);
        List.iteri field_stats fields
  in
  let path_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"CHECKPOINT"
          ~doc:
            "checkpoint file (ckpt_*.vmdg, as vmdg serve writes them)")
  in
  Cmd.v (Cmd.info "snapshot-info" ~doc:"Inspect a checkpoint file")
    Term.(const run $ path_t)

(* --- serve ---------------------------------------------------------------- *)

let serve_cmd =
  let run jobs spool concurrency slice_wall status append root max_wall
      keep_serving socket watermark =
    if jobs = [] && spool = None && socket = None then begin
      Fmt.epr "serve: no job files, no --spool, no --socket; nothing to do@.";
      exit 2
    end;
    let gate =
      match socket with
      | None -> None
      | Some path ->
          let intake = Dg.Intake.create () in
          let server =
            Dg.Gate.Server.start ~intake
              (Dg.Gate.Server.default_config
                 ~addr:(Dg.Gate.Frame.Unix_sock path))
          in
          Fmt.pr "serve: gate listening on unix:%s@." path;
          Some (intake, server)
    in
    let cfg =
      {
        (Dg.Engine.default_config ~root) with
        Dg.Engine.concurrency;
        slice_wall;
        status_path = status;
        status_append = append;
        spool;
        (* a socket-only server has nothing queued yet: stay up for
           clients instead of exiting on the initially-idle queue *)
        exit_on_idle =
          (not keep_serving)
          && not (socket <> None && jobs = [] && spool = None);
        intake = Option.map fst gate;
        admit_watermark = watermark;
      }
    in
    let summary =
      Dg.Supervisor.with_supervisor ?max_wall (fun sup ->
          Dg.Engine.run ~jobs ~supervisor:sup cfg)
    in
    (match gate with
    | Some (_, server) -> Dg.Gate.Server.stop server
    | None -> ());
    Fmt.pr "%a@." Dg.Engine.pp_summary summary;
    List.iter
      (fun (r : Dg.Engine.record) ->
        Fmt.pr "  %-16s %-8s steps=%-8d t=%-10.4g slices=%d preempts=%d \
                wall=%.2fs%s@."
          r.Dg.Engine.job.Dg.Job.id
          (Dg.Engine.outcome_to_string r.Dg.Engine.outcome)
          r.Dg.Engine.steps r.Dg.Engine.sim_time r.Dg.Engine.slices
          r.Dg.Engine.preempts r.Dg.Engine.wall_s
          (match r.Dg.Engine.outcome with
          | Dg.Engine.Failed why -> "  (" ^ why ^ ")"
          | _ -> ""))
      summary.Dg.Engine.records;
    if summary.Dg.Engine.jobs_failed > 0 then exit 1
  in
  let job_files_t =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"JOBS"
          ~doc:"Job files: single-job JSON objects or batch manifests.")
  in
  let spool_t =
    Arg.(
      value
      & opt (some dir) None
      & info [ "spool" ] ~docv:"DIR"
          ~doc:
            "Scan $(docv) for new $(i,*.json) job files while running \
             (consumed files are renamed $(i,.accepted)/$(i,.rejected)).")
  in
  let concurrency_t =
    Arg.(
      value & opt (int_in 1) 2
      & info [ "concurrency"; "j" ] ~docv:"N"
          ~doc:
            "Slots: at most $(docv) job slices run at once, one per slot (a \
             slot whose slice hangs is quarantined for the rest of the run).")
  in
  let slice_wall_t =
    Arg.(
      value & opt pos_float 5.0
      & info [ "slice-wall" ] ~docv:"SEC"
          ~doc:
            "Preempt a running job after $(docv) seconds when others are \
             waiting (checkpoint, requeue, resume bit-exactly).")
  in
  let status_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "status" ] ~docv:"FILE"
          ~doc:"Stream per-job and aggregate JSONL status records to $(docv).")
  in
  let append_t =
    Arg.(
      value & flag
      & info [ "append" ]
          ~doc:"Append to the status file instead of truncating it.")
  in
  let root_t =
    Arg.(
      value & opt string "serve-state"
      & info [ "root" ] ~docv:"DIR"
          ~doc:"Checkpoint root; job $(i,ID) lives in $(docv)/jobs/$(i,ID)/.")
  in
  let max_wall_t =
    Arg.(
      value
      & opt (some pos_float) None
      & info [ "max-wall" ] ~docv:"SEC"
          ~doc:
            "Stop cleanly (checkpoint at the next step boundary, then exit) \
             after $(docv) wall-clock seconds.")
  in
  let keep_serving_t =
    Arg.(
      value & flag
      & info [ "keep-serving" ]
          ~doc:
            "Keep scanning the spool after the queue drains instead of \
             exiting when idle (stop with SIGTERM/SIGINT).")
  in
  let socket_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Accept submit/status/cancel/drain requests on a Unix-domain \
             socket at $(docv) while running (see $(b,vmdg submit)).")
  in
  let watermark_t =
    Arg.(
      value & opt (int_in 1) 64
      & info [ "watermark" ] ~docv:"N"
          ~doc:
            "Refuse socket submits with $(i,overloaded) while the ready \
             queue holds $(docv) or more jobs (spool admission is not \
             throttled).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a queue of simulation jobs concurrently with checkpoint-based \
          preemption")
    Term.(
      const run $ jobs_of job_files_t $ spool_t $ concurrency_t $ slice_wall_t
      $ status_t $ append_t $ root_t $ max_wall_t $ keep_serving_t
      $ socket_t $ watermark_t)

(* --- submit ---------------------------------------------------------------- *)

let submit_cmd =
  let run socket jobs status cancel drain ping retries deadline =
    let client =
      Dg.Gate.Client.create ~io_deadline:deadline ~retries
        (Dg.Gate.Frame.Unix_sock socket)
    in
    let failed = ref false in
    let acted = ref false in
    let show tag result =
      acted := true;
      match result with
      | Ok r ->
          Fmt.pr "%s: %s@." tag (Dg.Gate.Protocol.response_to_string r);
          (match r with
          | Dg.Gate.Protocol.Accepted _ | Dg.Gate.Protocol.Pong
          | Dg.Gate.Protocol.Status_of _ ->
              ()
          | _ -> failed := true)
      | Error m ->
          Fmt.pr "%s: error: %s@." tag m;
          failed := true
    in
    if ping then show "ping" (Dg.Gate.Client.ping client);
    List.iter
      (fun (j : Dg.Job.t) -> show j.Dg.Job.id (Dg.Gate.Client.submit client j))
      jobs;
    (match cancel with
    | Some id -> show ("cancel " ^ id) (Dg.Gate.Client.cancel client id)
    | None -> ());
    (match status with
    | Some id ->
        let id = if id = "" then None else Some id in
        show "status" (Dg.Gate.Client.status client id)
    | None -> ());
    (match drain with
    | Some why -> show "drain" (Dg.Gate.Client.drain client why)
    | None -> ());
    if not !acted then begin
      Fmt.epr
        "submit: nothing to do (give job files or --status / --cancel / \
         --drain / --ping)@.";
      exit 2
    end;
    if !failed then exit 1
  in
  let socket_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix socket of a running $(b,vmdg serve --socket).")
  in
  let job_files_t =
    Arg.(
      value & pos_all file []
      & info [] ~docv:"JOBS"
          ~doc:
            "Job files to submit (single-job JSON objects or batch \
             manifests).  Submission is idempotent: resubmitting an id the \
             server already knows is acknowledged as a duplicate, never run \
             twice.")
  in
  let status_t =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "status" ] ~docv:"ID"
          ~doc:
            "Ask for server status, or for job $(docv)'s status when given.")
  in
  let cancel_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "cancel" ] ~docv:"ID" ~doc:"Cancel a queued or running job.")
  in
  let drain_t =
    Arg.(
      value
      & opt ~vopt:(Some "operator request") (some string) None
      & info [ "drain" ] ~docv:"REASON"
          ~doc:
            "Ask the server to drain: checkpoint and requeue running jobs, \
             then exit.")
  in
  let ping_t =
    Arg.(
      value & flag
      & info [ "ping" ]
          ~doc:"Liveness probe answered by the gate without the engine.")
  in
  let retries_t =
    Arg.(
      value & opt (int_in 0) 4
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Extra attempts after a transport failure or $(i,overloaded) \
             response, with jittered exponential backoff between attempts.")
  in
  let deadline_t =
    Arg.(
      value & opt pos_float 5.0
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:"Per-attempt budget for connect, send, and receive each.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit jobs to (and query, cancel, drain) a running $(b,vmdg serve \
          --socket)")
    Term.(
      const run $ socket_t $ jobs_of job_files_t $ status_t $ cancel_t $ drain_t
      $ ping_t $ retries_t $ deadline_t)

(* --- chaos ----------------------------------------------------------------- *)

let chaos_cmd =
  let run seed campaigns profile root verbose =
    let log = if verbose then fun m -> Fmt.pr "chaos: %s@." m else fun _ -> () in
    let any_red = ref false in
    for c = 0 to campaigns - 1 do
      let seed = seed + c in
      Fmt.pr "campaign %d/%d (seed %d, fingerprint %s)@." (c + 1) campaigns
        seed
        (Dg.Chaos.schedule_fingerprint ~seed profile);
      let report = Dg.Chaos.run_campaign ?root ~log ~seed profile in
      Fmt.pr "@[<v>%a@]@." Dg.Chaos.pp_report report;
      if not (Dg.Chaos.passed report) then any_red := true
    done;
    if !any_red then exit 1
  in
  let seed_t =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Campaign seed: the entire fault schedule is a pure function of \
             the seed, so rerunning a failing seed replays the identical \
             disruption schedule.")
  in
  let campaigns_t =
    Arg.(
      value & opt (int_in 1) 1
      & info [ "campaigns" ] ~docv:"N"
          ~doc:"Run $(docv) campaigns with consecutive seeds.")
  in
  let profile_t =
    Arg.(
      value
      & opt
          (enum
             (List.map
                (fun (p : Dg.Chaos.profile) -> (p.name, p))
                Dg.Chaos.[ smoke; standard; network ]))
          Dg.Chaos.smoke
      & info [ "profile" ] ~docv:"NAME"
          ~doc:
            "Campaign profile: $(b,smoke) (CI-sized), $(b,standard), or \
             $(b,network) (socket-gate faults).")
  in
  let root_t =
    Arg.(
      value & opt (some string) None
      & info [ "root" ] ~docv:"DIR"
          ~doc:
            "Keep campaign artifacts (references, chaos checkpoints, spool, \
             status streams) under $(docv) instead of a temp directory.")
  in
  let verbose_t =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Narrate disruptions.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded, replayable chaos campaign against the job engine and \
          check its invariants")
    Term.(
      const run $ seed_t $ campaigns_t $ profile_t $ root_t $ verbose_t)

(* --- trace-report --------------------------------------------------------- *)

let trace_report_cmd =
  let run path =
    match Dg.Obs.Report.print path with
    | exception e ->
        let why =
          match e with
          | Dg.Obs.Json.Parse_error m -> "not a JSONL trace: " ^ m
          | Failure m | Sys_error m -> m
          | e -> Printexc.to_string e
        in
        Fmt.epr "trace-report: %s: %s@." path why;
        exit 1
    | _ -> ()
  in
  let path_t =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"JSONL trace written with --trace")
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:"Summarize a JSONL profile trace (per-span table, coverage)")
    Term.(const run $ path_t)

let () =
  let doc = "modal alias-free matrix-free quadrature-free DG kinetic solver" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "vmdg" ~doc)
          [
            info_cmd;
            kernel_dump_cmd;
            run_cmd;
            scenarios_cmd;
            serve_cmd;
            submit_cmd;
            chaos_cmd;
            snapshot_info_cmd;
            trace_report_cmd;
          ]))
