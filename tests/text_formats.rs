//! The exact bytes of every text format the system writes: a Table II
//! parameter file, an injection-list line, a results-log header and rows,
//! a campaign journal's `# meta` settings, and one worker-protocol frame of
//! each message kind.
//!
//! Files written by earlier builds must stay readable, and new ones
//! byte-identical to them, so the parameter-file and log texts below change
//! only with a new format version. The frame texts pin the tab-separated
//! wire format.

use nvbitfi::logfile::{
    parse_log_header, read_injection_list, read_results_log, results_log_header, results_log_row,
    write_injection_list, CampaignSettings,
};
use nvbitfi::{
    BitFlipModel, CampaignConfig, InjectionRun, InstrGroup, Msg, Outcome, OutcomeClass,
    ProfilingMode, SdcReason, TransientParams, WorkerInit,
};
use std::time::Duration;

fn site() -> TransientParams {
    TransientParams {
        group: InstrGroup::GpPr,
        bit_flip: BitFlipModel::FlipTwoBits,
        kernel_name: "stencil_step".into(),
        kernel_count: 3,
        instruction_count: 12345,
        destination_register: 0.1,
        bit_pattern: 0.8356941081787188,
    }
}

fn run(pruned: bool) -> InjectionRun {
    InjectionRun {
        params: site(),
        outcome: if pruned {
            Outcome { class: OutcomeClass::Masked, potential_due: false }
        } else {
            Outcome { class: OutcomeClass::Sdc(vec![SdcReason::Stdout]), potential_due: true }
        },
        injected: !pruned,
        wall: Duration::from_micros(if pruned { 0 } else { 1234 }),
        prefix_instrs_skipped: if pruned { 0 } else { 99 },
        tail_replayed: Default::default(),
        pruned,
        attempts: if pruned { 1 } else { 2 },
        resumed: false,
    }
}

#[test]
fn every_text_format_is_byte_exact() {
    let p = site();
    let file = "7\n2\nstencil_step\n3\n12345\n0.1\n0.8356941081787188\n";
    assert_eq!(p.to_file(), file);
    assert_eq!(TransientParams::from_file(file).expect("parse"), p);

    let list = "# nvbitfi injection list v1\n\
                # igid\tbfm\tkernel\tkcount\ticount\tdreg\tbitpat\n\
                7\t2\tstencil_step\t3\t12345\t0.1\t0.8356941081787188\n";
    assert_eq!(write_injection_list(std::slice::from_ref(&p)), list);
    assert_eq!(read_injection_list(list).expect("parse"), vec![p.clone()]);

    let header = "# nvbitfi results log v5 program=303.ostencil\n\
                  # meta seed=42\n\
                  # meta isolation=process\n\
                  # igid\tbfm\tkernel\tkcount\ticount\tdreg\tbitpat\tfired\toutcome\twall_us\tskip_instrs\tpruned\tattempts\n";
    let meta = [("seed", "42".to_string()), ("isolation", "process".to_string())];
    assert_eq!(results_log_header("303.ostencil", &meta), header);

    let ran = "7\t2\tstencil_step\t3\t12345\t0.1\t0.8356941081787188\t1\tSDC:stdout+pdue\t1234\t99\t-\t2\n";
    let pruned =
        "7\t2\tstencil_step\t3\t12345\t0.1\t0.8356941081787188\t0\tMASKED\t0\t0\tstatic\t1\n";
    assert_eq!(results_log_row(&run(false)), ran);
    assert_eq!(results_log_row(&run(true)), pruned);
    let rows = read_results_log(&format!("{header}{ran}{pruned}")).expect("parse");
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r.params == p));

    let frames = [
        (
            Msg::Init(WorkerInit {
                program: "314.omriq".into(),
                scale: "test".into(),
                use_checkpoints: true,
                deadline_ms: Some(5000),
                heartbeat_ms: 100,
            }),
            "init\t314.omriq\ttest\t1\t5000\t100",
        ),
        (
            Msg::Init(WorkerInit {
                program: "a\tb\\c\nd".into(),
                scale: "paper".into(),
                use_checkpoints: false,
                deadline_ms: None,
                heartbeat_ms: 1,
            }),
            "init\ta\\tb\\\\c\\nd\tpaper\t0\t-\t1",
        ),
        (Msg::Ready, "ready"),
        (
            Msg::Run { id: 7, site: site().to_file() },
            "run\t7\t7\\n2\\nstencil_step\\n3\\n12345\\n0.1\\n0.8356941081787188\\n",
        ),
        (Msg::Heartbeat, "heartbeat"),
        (
            Msg::Done {
                id: 7,
                outcome: "SDC:stdout+pdue".into(),
                injected: true,
                wall_us: 1234,
                skip_instrs: 99,
                tail_launches: 3,
                tail_instrs: 4567,
            },
            "done\t7\tSDC:stdout+pdue\t1\t1234\t99\t3\t4567",
        ),
        (
            Msg::Error { message: "golden run failed: boom".into() },
            "error\tgolden run failed: boom",
        ),
        (Msg::Shutdown, "shutdown"),
    ];
    for (msg, text) in frames {
        assert_eq!(msg.to_json(), text);
        assert_eq!(Msg::parse(text), Some(msg));
    }
}

#[test]
fn campaign_journal_header_is_byte_exact() {
    // Every setting away from its default, as `campaign --scale test
    // --injections 3 --group 2 --bitflip 3 --seed 99 --mode approx
    // --no-checkpoint --no-static-prune --max-retries 4 --deadline-ms 12345
    // --isolation process` writes it.
    let settings = CampaignSettings {
        scale: "test".into(),
        isolation: "process".into(),
        config: CampaignConfig {
            injections: 3,
            group: InstrGroup::Fp32,
            bit_flip: BitFlipModel::RandomValue,
            profiling: ProfilingMode::Approximate,
            seed: 99,
            use_checkpoints: false,
            use_static_prune: false,
            max_retries: 4,
            run_deadline: Some(Duration::from_millis(12345)),
            ..CampaignConfig::default()
        },
    };
    let header = "# nvbitfi results log v5 program=314.omriq\n\
                  # meta scale=test\n\
                  # meta igid=2\n\
                  # meta bfm=3\n\
                  # meta injections=3\n\
                  # meta seed=99\n\
                  # meta mode=approx\n\
                  # meta checkpoints=0\n\
                  # meta prune=0\n\
                  # meta max_retries=4\n\
                  # meta deadline_ms=12345\n\
                  # meta isolation=process\n\
                  # igid\tbfm\tkernel\tkcount\ticount\tdreg\tbitpat\tfired\toutcome\twall_us\tskip_instrs\tpruned\tattempts\n";
    assert_eq!(results_log_header("314.omriq", &settings.meta()), header);
    let back = CampaignSettings::from_meta(&parse_log_header(header)).expect("read");
    assert_eq!(back.meta(), settings.meta());
}
