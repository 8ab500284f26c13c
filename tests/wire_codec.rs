//! Wire-codec hardening: property-based round-trips for every frame
//! kind, plus a seeded fuzz sweep over truncated and bit-flipped
//! frames asserting the decoder returns typed errors and never
//! panics. `SWSIMD_FUZZ_CASES` scales the sweep (default 10_000).

use std::io::Cursor;

use proptest::prelude::*;
use swsimd::core::{AlignError, Hit, Precision};
use swsimd::net::wire::frame;
use swsimd::net::{read_msg, write_msg, Msg, RemoteError, StreamToken, WireError, MAX_FRAME};
use swsimd::obs::{ShardTiming, Stage, StageTiming, TraceCtx};
use swsimd::runner::{Fidelity, ServeError, MAX_TENANT_LEN};
use swsimd::EngineKind;

fn trace_strategy() -> impl Strategy<Value = TraceCtx> {
    // 0/0 is the untraced default; nonzero ids exercise the extension
    // tail. A zero trace id with a nonzero span id still encodes as
    // untraced (is_traced is keyed on trace_id alone).
    prop_oneof![
        Just(TraceCtx::default()),
        (1u64..u64::MAX, 0u64..u64::MAX)
            .prop_map(|(trace_id, span_id)| TraceCtx { trace_id, span_id }),
    ]
}

fn stage_strategy() -> impl Strategy<Value = StageTiming> {
    (
        prop_oneof![
            Just(Stage::Admission),
            Just(Stage::Queue),
            Just(Stage::Dispatch),
            Just(Stage::Kernel),
            Just(Stage::Traceback),
            Just(Stage::NetRtt),
            Just(Stage::Merge),
        ],
        0u64..u64::MAX,
    )
        .prop_map(|(stage, ns)| StageTiming { stage, ns })
}

fn timing_strategy() -> impl Strategy<Value = Option<ShardTiming>> {
    prop_oneof![
        Just(None),
        (
            (0u32..64, 0u64..u64::MAX, 0u64..u64::MAX),
            prop_oneof![Just(""), Just("scalar"), Just("AVX2"), Just("AVX-512")],
            prop::collection::vec(stage_strategy(), 0..7),
        )
            .prop_map(|((shard, root_span, rtt_ns), engine, stages)| {
                Some(ShardTiming {
                    shard,
                    root_span,
                    engine: engine.to_string(),
                    rtt_ns,
                    stages,
                })
            }),
    ]
}

fn tenant_strategy() -> impl Strategy<Value = String> {
    // Empty (the default tenant — encodes as ext absence), short ASCII
    // names, and a multibyte UTF-8 name near the byte cap.
    prop_oneof![
        Just(String::new()),
        prop::collection::vec(b'a'..=b'z', 1..=16)
            .prop_map(|bs| bs.into_iter().map(char::from).collect()),
        Just("équipe-β".to_string()),
    ]
}

fn fidelity_strategy() -> impl Strategy<Value = Fidelity> {
    prop_oneof![
        Just(Fidelity::Full),
        Just(Fidelity::NoShadow),
        Just(Fidelity::ScoreOnly),
        Just(Fidelity::TightDeadline),
    ]
}

fn roundtrip(msg: &Msg) -> Msg {
    let mut buf = Vec::new();
    write_msg(&mut buf, msg).expect("encode");
    let mut cur = Cursor::new(buf);
    let back = read_msg(&mut cur).expect("decode");
    // The stream must be fully consumed: a second read is a clean EOF.
    assert!(matches!(read_msg(&mut cur), Err(WireError::Eof)));
    back
}

fn precision_strategy() -> impl Strategy<Value = Precision> {
    prop_oneof![
        Just(Precision::I8),
        Just(Precision::I16),
        Just(Precision::I32),
        Just(Precision::Adaptive),
    ]
}

fn hit_strategy() -> impl Strategy<Value = Hit> {
    (0usize..1_000_000, -100i32..10_000, precision_strategy()).prop_map(
        |(db_index, score, precision)| Hit {
            db_index,
            score,
            precision,
        },
    )
}

fn serve_error_strategy() -> impl Strategy<Value = ServeError> {
    prop_oneof![
        Just(ServeError::ShutDown),
        Just(ServeError::DeadlineExceeded),
        (0u64..100_000).prop_map(|retry_after_ms| ServeError::QueueFull { retry_after_ms }),
        (0u64..100_000).prop_map(|retry_after_ms| ServeError::RateLimited { retry_after_ms }),
        Just(ServeError::WorkerPanicked),
        (0usize..10_000, 0u8..255).prop_map(|(position, value)| {
            ServeError::InvalidQuery(AlignError::InvalidResidue { position, value })
        }),
        precision_strategy()
            .prop_map(|precision| ServeError::InvalidQuery(AlignError::Saturated { precision })),
        (1usize..1_000_000, 1usize..1_000)
            .prop_map(|(len, limit)| ServeError::QueryTooLarge { len, limit }),
        prop_oneof![
            Just(EngineKind::Scalar),
            Just(EngineKind::Sse41),
            Just(EngineKind::Avx2),
            Just(EngineKind::Avx512),
        ]
        .prop_map(|requested| ServeError::EngineUnavailable {
            requested,
            reason: swsimd::core::error::REMOTE_UNAVAILABLE_REASON,
        }),
        (1u64..u64::MAX, 1u64..u64::MAX)
            .prop_map(|(cost, limit)| ServeError::CostTooHigh { cost, limit }),
        (1u64..u64::MAX, 1u64..u64::MAX)
            .prop_map(|(requested, limit)| ServeError::BudgetExceeded { requested, limit }),
    ]
}

fn remote_error_strategy() -> impl Strategy<Value = RemoteError> {
    prop_oneof![
        serve_error_strategy().prop_map(RemoteError::Serve),
        (0u32..64, 0u32..64).prop_map(|(got, want)| RemoteError::WrongShard { got, want }),
        Just(RemoteError::Draining),
        Just(RemoteError::Unavailable),
        Just(RemoteError::BadResumeToken),
    ]
}

fn token_strategy() -> impl Strategy<Value = StreamToken> {
    (
        0u64..u64::MAX,
        0u32..u32::MAX,
        0u32..10_000,
        prop::collection::vec((0u32..64, 0u64..u64::MAX), 0..8),
    )
        .prop_map(|(trace_id, query_crc, top_k, cursors)| StreamToken {
            trace_id,
            query_crc,
            top_k,
            cursors,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn query_round_trips(
        id in 0u64..u64::MAX,
        top_k in 0u32..10_000,
        deadline_ms in 0u32..u32::MAX,
        slice_index in 0u32..64,
        slice_count in 0u32..64,
        query in prop::collection::vec(0u8..24, 0..512),
        trace in trace_strategy(),
        tenant in tenant_strategy(),
    ) {
        let msg = Msg::Query {
            id, top_k, deadline_ms, slice_index, slice_count, query, trace, tenant,
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn hits_round_trip(
        id in 0u64..u64::MAX,
        degraded in prop_oneof![Just(false), Just(true)],
        missing in prop::collection::vec(0u32..64, 0..8),
        hits in prop::collection::vec(hit_strategy(), 0..64),
        trace_id in 0u64..u64::MAX,
        timing in timing_strategy(),
        fidelity in fidelity_strategy(),
    ) {
        let msg = Msg::Hits {
            id, degraded, missing_shards: missing, hits, trace_id, timing, fidelity,
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    /// Forward compatibility over the extension tail: frames carrying
    /// unknown (future) extension records decode to the same message,
    /// for any record contents, in any position relative to the known
    /// extensions.
    #[test]
    fn unknown_extensions_fuzz(
        query in prop::collection::vec(0u8..24, 0..64),
        trace in trace_strategy(),
        tenant in tenant_strategy(),
        trace_id in 0u64..u64::MAX,
        timing in timing_strategy(),
        fidelity in fidelity_strategy(),
        exts in prop::collection::vec(
            // Kinds 0x10.. are unassigned today; bodies are arbitrary.
            (0x10u8..=0xFF, prop::collection::vec(any::<u8>(), 0..128)),
            1..4,
        ),
        prepend in prop_oneof![Just(false), Just(true)],
    ) {
        let push_unknown = |bytes: &mut Vec<u8>| {
            for (kind, body) in &exts {
                bytes.push(*kind);
                bytes.extend_from_slice(&(body.len() as u16).to_le_bytes());
                bytes.extend_from_slice(body);
            }
        };

        let msg = Msg::Query {
            id: 1, top_k: 5, deadline_ms: 0, slice_index: 0, slice_count: 0,
            query, trace, tenant,
        };
        let mut bytes = msg.encode();
        push_unknown(&mut bytes);
        prop_assert_eq!(Msg::decode(&bytes).expect("query decodes"), msg);

        let hits = Msg::Hits {
            id: 2, degraded: false, missing_shards: vec![], hits: vec![],
            trace_id, timing, fidelity,
        };
        let bytes = if prepend {
            // Splice the unknown records *before* the known tail: take
            // the fixed body (encode with no extensions), then append
            // unknown + known records by re-encoding the full message
            // and keeping only its tail.
            let bare = Msg::Hits {
                id: 2, degraded: false, missing_shards: vec![], hits: vec![],
                trace_id: 0, timing: None, fidelity: Fidelity::Full,
            }.encode();
            let full = hits.encode();
            let mut b = bare.clone();
            push_unknown(&mut b);
            b.extend_from_slice(&full[bare.len()..]);
            b
        } else {
            let mut b = hits.encode();
            push_unknown(&mut b);
            b
        };
        prop_assert_eq!(Msg::decode(&bytes).expect("hits decode"), hits);
    }

    #[test]
    fn error_round_trips(id in 0u64..u64::MAX, err in remote_error_strategy()) {
        let msg = Msg::Error { id, err };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn stream_query_round_trips(
        id in 0u64..u64::MAX,
        top_k in 0u32..10_000,
        deadline_ms in 0u32..u32::MAX,
        slice_index in 0u32..64,
        slice_count in 0u32..64,
        credit in 1u32..u32::MAX,
        cursor in 0u64..u64::MAX,
        query in prop::collection::vec(0u8..24, 0..512),
        trace in trace_strategy(),
        tenant in tenant_strategy(),
    ) {
        let msg = Msg::StreamQuery {
            id, top_k, deadline_ms, slice_index, slice_count, credit, cursor,
            query, trace, tenant,
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn stream_chunk_round_trips(
        id in 0u64..u64::MAX,
        shard in 0u32..u32::MAX,
        cursor in 1u64..u64::MAX,
        hits in prop::collection::vec(hit_strategy(), 0..64),
    ) {
        let msg = Msg::StreamChunk { id, shard, cursor, hits };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn progress_and_credit_round_trip(
        id in 0u64..u64::MAX,
        cells_done in 0u64..u64::MAX,
        cells_total in 0u64..u64::MAX,
        credits in 1u32..u32::MAX,
    ) {
        for msg in [
            Msg::Progress { id, cells_done, cells_total },
            Msg::Credit { id, credits },
        ] {
            prop_assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn resume_round_trips(
        id in 0u64..u64::MAX,
        deadline_ms in 0u32..u32::MAX,
        credit in 1u32..u32::MAX,
        token in token_strategy(),
        query in prop::collection::vec(0u8..24, 0..512),
        trace in trace_strategy(),
        tenant in tenant_strategy(),
    ) {
        let msg = Msg::Resume { id, deadline_ms, credit, token, query, trace, tenant };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn fin_round_trips(
        id in 0u64..u64::MAX,
        digest in 0u32..u32::MAX,
        degraded in prop_oneof![Just(false), Just(true)],
        missing in prop::collection::vec(0u32..64, 0..8),
        trace_id in 0u64..u64::MAX,
        fidelity in fidelity_strategy(),
    ) {
        let msg = Msg::Fin {
            id, digest, degraded, missing_shards: missing, trace_id, timing: None, fidelity,
        };
        prop_assert_eq!(roundtrip(&msg), msg);
    }

    /// The hex form a user pastes back on `--resume` is a faithful
    /// transport for any token, including the empty-cursor degenerate.
    #[test]
    fn stream_token_hex_round_trips(token in token_strategy()) {
        let hex = token.to_hex();
        prop_assert_eq!(StreamToken::from_hex(&hex).expect("hex decodes"), token);
    }

    #[test]
    fn control_frames_round_trip(
        nonce in 0u64..u64::MAX,
        shard in 0u32..u32::MAX,
        draining in prop_oneof![Just(false), Just(true)],
        text in prop::collection::vec(0u8..255, 0..2048),
    ) {
        for msg in [
            Msg::Ping { nonce },
            Msg::Pong { nonce, shard, draining },
            Msg::Drain,
            Msg::MetricsRequest,
            Msg::MetricsText { text },
            Msg::Activate,
        ] {
            prop_assert_eq!(roundtrip(&msg), msg);
        }
    }
}

/// splitmix64: the fuzz sweep's deterministic RNG.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fuzz_cases() -> u64 {
    std::env::var("SWSIMD_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000)
}

/// A pseudo-random valid message to mutate.
fn arbitrary_msg(seed: &mut u64) -> Msg {
    match splitmix64(seed) % 15 {
        0 => Msg::Ping {
            nonce: splitmix64(seed),
        },
        8 => Msg::Activate,
        9 => Msg::StreamQuery {
            id: splitmix64(seed),
            top_k: (splitmix64(seed) % 100) as u32,
            deadline_ms: (splitmix64(seed) % 100_000) as u32,
            slice_index: (splitmix64(seed) % 8) as u32,
            slice_count: (splitmix64(seed) % 8) as u32,
            credit: 1 + (splitmix64(seed) % 64) as u32,
            cursor: splitmix64(seed) % 1024,
            query: (0..splitmix64(seed) % 256)
                .map(|_| (splitmix64(seed) % 24) as u8)
                .collect(),
            trace: TraceCtx {
                trace_id: splitmix64(seed) % 2 * splitmix64(seed),
                span_id: splitmix64(seed),
            },
            tenant: match splitmix64(seed) % 3 {
                0 => String::new(),
                1 => "acme".into(),
                _ => "free-tier".into(),
            },
        },
        10 => Msg::StreamChunk {
            id: splitmix64(seed),
            shard: (splitmix64(seed) % 64) as u32,
            cursor: 1 + splitmix64(seed) % 100_000,
            hits: (0..splitmix64(seed) % 16)
                .map(|_| Hit {
                    db_index: (splitmix64(seed) % 1_000_000) as usize,
                    score: (splitmix64(seed) % 10_000) as i32,
                    precision: Precision::I16,
                })
                .collect(),
        },
        11 => Msg::Progress {
            id: splitmix64(seed),
            cells_done: splitmix64(seed),
            cells_total: splitmix64(seed),
        },
        12 => Msg::Credit {
            id: splitmix64(seed),
            credits: 1 + (splitmix64(seed) % 1024) as u32,
        },
        13 => Msg::Resume {
            id: splitmix64(seed),
            deadline_ms: (splitmix64(seed) % 100_000) as u32,
            credit: 1 + (splitmix64(seed) % 64) as u32,
            token: StreamToken {
                trace_id: splitmix64(seed),
                query_crc: (splitmix64(seed) & 0xFFFF_FFFF) as u32,
                top_k: (splitmix64(seed) % 100) as u32,
                cursors: (0..splitmix64(seed) % 5)
                    .map(|i| (i as u32, splitmix64(seed) % 10_000))
                    .collect(),
            },
            query: (0..splitmix64(seed) % 128)
                .map(|_| (splitmix64(seed) % 24) as u8)
                .collect(),
            trace: TraceCtx::default(),
            tenant: String::new(),
        },
        14 => Msg::Fin {
            id: splitmix64(seed),
            digest: (splitmix64(seed) & 0xFFFF_FFFF) as u32,
            degraded: splitmix64(seed).is_multiple_of(2),
            missing_shards: (0..splitmix64(seed) % 4)
                .map(|_| (splitmix64(seed) % 64) as u32)
                .collect(),
            trace_id: splitmix64(seed) % 2 * splitmix64(seed),
            timing: None,
            fidelity: Fidelity::from_u8((splitmix64(seed) % 4) as u8),
        },
        1 => Msg::Pong {
            nonce: splitmix64(seed),
            shard: (splitmix64(seed) % 64) as u32,
            draining: splitmix64(seed).is_multiple_of(2),
        },
        2 => Msg::Drain,
        3 => Msg::MetricsRequest,
        4 => Msg::MetricsText {
            text: (0..splitmix64(seed) % 256)
                .map(|_| (splitmix64(seed) & 0xFF) as u8)
                .collect(),
        },
        5 => Msg::Error {
            id: splitmix64(seed),
            err: RemoteError::WrongShard {
                got: (splitmix64(seed) % 64) as u32,
                want: (splitmix64(seed) % 64) as u32,
            },
        },
        6 => Msg::Hits {
            id: splitmix64(seed),
            degraded: splitmix64(seed).is_multiple_of(2),
            missing_shards: (0..splitmix64(seed) % 4)
                .map(|_| (splitmix64(seed) % 64) as u32)
                .collect(),
            hits: (0..splitmix64(seed) % 16)
                .map(|_| Hit {
                    db_index: (splitmix64(seed) % 1_000_000) as usize,
                    score: (splitmix64(seed) % 10_000) as i32,
                    precision: Precision::I16,
                })
                .collect(),
            trace_id: splitmix64(seed) % 2 * splitmix64(seed),
            timing: splitmix64(seed).is_multiple_of(2).then(|| ShardTiming {
                shard: (splitmix64(seed) % 64) as u32,
                root_span: splitmix64(seed),
                engine: "AVX2".into(),
                rtt_ns: splitmix64(seed) % 1_000_000_000,
                stages: vec![StageTiming {
                    stage: Stage::Kernel,
                    ns: splitmix64(seed) % 1_000_000_000,
                }],
            }),
            fidelity: Fidelity::from_u8((splitmix64(seed) % 4) as u8),
        },
        _ => Msg::Query {
            id: splitmix64(seed),
            top_k: (splitmix64(seed) % 100) as u32,
            deadline_ms: (splitmix64(seed) % 100_000) as u32,
            slice_index: (splitmix64(seed) % 8) as u32,
            slice_count: (splitmix64(seed) % 8) as u32,
            query: (0..splitmix64(seed) % 512)
                .map(|_| (splitmix64(seed) % 24) as u8)
                .collect(),
            trace: TraceCtx {
                trace_id: splitmix64(seed) % 2 * splitmix64(seed),
                span_id: splitmix64(seed),
            },
            tenant: match splitmix64(seed) % 3 {
                0 => String::new(),
                1 => "acme".into(),
                _ => "free-tier".into(),
            },
        },
    }
}

/// The decoder's contract under corruption: a typed result, never a
/// panic, never an allocation driven by a hostile length prefix.
fn decode_is_typed(bytes: &[u8]) {
    let mut cur = Cursor::new(bytes);
    loop {
        match read_msg(&mut cur) {
            Ok(_) => continue, // a prefix decoded cleanly; keep reading
            Err(WireError::Eof) => break,
            Err(
                WireError::Truncated
                | WireError::TooLarge(_)
                | WireError::BadCrc { .. }
                | WireError::UnknownKind(_)
                | WireError::Malformed(_)
                | WireError::Io(_),
            ) => break,
        }
    }
}

#[test]
fn fuzz_truncated_and_flipped_frames_never_panic() {
    let cases = fuzz_cases();
    let mut seed = 0x57495245_u64; // "WIRE"
    let mut truncations = 0u64;
    let mut flips = 0u64;
    for _ in 0..cases {
        let framed = frame(&arbitrary_msg(&mut seed).encode());
        match splitmix64(&mut seed) % 3 {
            0 => {
                // Truncate anywhere, including inside the prefix.
                let cut = (splitmix64(&mut seed) as usize) % framed.len();
                decode_is_typed(&framed[..cut]);
                truncations += 1;
            }
            1 => {
                // Flip one bit anywhere (prefix, payload, or CRC).
                let mut bytes = framed.clone();
                let bit = (splitmix64(&mut seed) as usize) % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                decode_is_typed(&bytes);
                flips += 1;
            }
            _ => {
                // Garbage prefix of random bytes before a valid frame.
                let mut bytes: Vec<u8> = (0..splitmix64(&mut seed) % 16)
                    .map(|_| (splitmix64(&mut seed) & 0xFF) as u8)
                    .collect();
                bytes.extend_from_slice(&framed);
                decode_is_typed(&bytes);
            }
        }
    }
    assert!(
        truncations > cases / 5,
        "sweep skew: {truncations} truncations"
    );
    assert!(flips > cases / 5, "sweep skew: {flips} flips");
}

/// A payload-byte flip must surface as `BadCrc` specifically — the
/// frame arrives complete, so only the checksum can catch it.
#[test]
fn payload_bit_flip_is_bad_crc() {
    let msg = Msg::Query {
        id: 7,
        top_k: 10,
        deadline_ms: 0,
        slice_index: 0,
        slice_count: 0,
        query: vec![1, 2, 3, 4, 5],
        trace: TraceCtx {
            trace_id: 0xFACE,
            span_id: 0xB00C,
        },
        tenant: "acme".into(),
    };
    let framed = frame(&msg.encode());
    for i in 4..framed.len() - 4 {
        let mut bytes = framed.clone();
        bytes[i] ^= 0x01;
        match read_msg(&mut Cursor::new(&bytes)) {
            Err(WireError::BadCrc { .. }) => {}
            other => panic!("payload flip at {i} gave {other:?}"),
        }
    }
}

fn plain_query(tenant: &str) -> Msg {
    Msg::Query {
        id: 9,
        top_k: 3,
        deadline_ms: 0,
        slice_index: 0,
        slice_count: 0,
        query: vec![1, 2, 3],
        trace: TraceCtx::default(),
        tenant: tenant.to_string(),
    }
}

/// Append one raw extension record (kind, little-endian u16 length,
/// body) — the layout new peers use for the tenant ext.
fn push_raw_ext(bytes: &mut Vec<u8>, kind: u8, body: &[u8]) {
    bytes.push(kind);
    bytes.extend_from_slice(&(body.len() as u16).to_le_bytes());
    bytes.extend_from_slice(body);
}

const RAW_EXT_TENANT: u8 = 4;

/// Byte-level compatibility: the default tenant and full fidelity
/// encode as extension *absence*, so a new peer's frames are
/// byte-identical to an old peer's, and an old peer's (extension-free)
/// frames decode to the defaults.
#[test]
fn default_tenant_and_full_fidelity_are_byte_compatible_with_old_frames() {
    let bare = plain_query("").encode();
    let named = plain_query("acme").encode();
    // The tenant ext strictly appends to the old layout.
    assert_eq!(&named[..bare.len()], &bare[..]);
    assert_eq!(named.len(), bare.len() + 3 + 4); // header + "acme"
    match Msg::decode(&bare).expect("old frame decodes") {
        Msg::Query { tenant, .. } => assert_eq!(tenant, ""),
        other => panic!("{other:?}"),
    }

    let full = Msg::Hits {
        id: 9,
        degraded: false,
        missing_shards: vec![],
        hits: vec![],
        trace_id: 0,
        timing: None,
        fidelity: Fidelity::Full,
    };
    let full_bytes = full.encode();
    match Msg::decode(&full_bytes).expect("hits decode") {
        Msg::Hits { fidelity, .. } => assert_eq!(fidelity, Fidelity::Full),
        other => panic!("{other:?}"),
    }
}

/// Hostile tenant extensions are rejected with a typed error before
/// the name is materialised: oversized names and invalid UTF-8.
#[test]
fn hostile_tenant_extensions_are_typed_errors() {
    let mut oversized = plain_query("").encode();
    push_raw_ext(&mut oversized, RAW_EXT_TENANT, &[b'x'; MAX_TENANT_LEN + 1]);
    assert!(matches!(
        Msg::decode(&oversized),
        Err(WireError::Malformed(_))
    ));

    let mut bad_utf8 = plain_query("").encode();
    push_raw_ext(&mut bad_utf8, RAW_EXT_TENANT, &[0xC0, 0x80]);
    assert!(matches!(
        Msg::decode(&bad_utf8),
        Err(WireError::Malformed(_))
    ));

    // A name at exactly the cap is accepted.
    let mut at_cap = plain_query("").encode();
    push_raw_ext(&mut at_cap, RAW_EXT_TENANT, &[b'x'; MAX_TENANT_LEN]);
    match Msg::decode(&at_cap).expect("cap-length tenant decodes") {
        Msg::Query { tenant, .. } => assert_eq!(tenant.len(), MAX_TENANT_LEN),
        other => panic!("{other:?}"),
    }
}

/// Seeded fuzz over mangled tenant extensions: random bodies (any
/// bytes, any length up to past the cap) must decode to Ok or a typed
/// Malformed — never a panic, never an unbounded allocation.
#[test]
fn fuzz_tenant_extension_bodies_never_panic() {
    let mut seed = 0x54454E54_u64; // "TENT"
    let cases = fuzz_cases() / 10;
    for _ in 0..cases.max(100) {
        let mut bytes = plain_query("").encode();
        let len = (splitmix64(&mut seed) as usize) % (MAX_TENANT_LEN * 2);
        let body: Vec<u8> = (0..len)
            .map(|_| (splitmix64(&mut seed) & 0xFF) as u8)
            .collect();
        push_raw_ext(&mut bytes, RAW_EXT_TENANT, &body);
        match Msg::decode(&bytes) {
            Ok(Msg::Query { tenant, .. }) => assert!(tenant.len() <= MAX_TENANT_LEN),
            Ok(other) => panic!("query mutated into {other:?}"),
            Err(WireError::Malformed(_)) => {}
            Err(other) => panic!("unexpected error class {other:?}"),
        }
    }
}

#[test]
fn hostile_length_prefix_is_rejected() {
    let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
    match read_msg(&mut Cursor::new(&huge[..])) {
        Err(WireError::TooLarge(n)) => assert_eq!(n as usize, MAX_FRAME + 1),
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

/// Zero credit and a zero chunk cursor are protocol violations the
/// decoder rejects before the stream machinery ever sees them — a
/// zero-credit stream can never make progress, and cursors are 1-based
/// so 0 would defeat resume dedupe.
#[test]
fn zero_credit_and_zero_cursor_frames_are_typed_errors() {
    let mut sq = Msg::StreamQuery {
        id: 1,
        top_k: 5,
        deadline_ms: 0,
        slice_index: 0,
        slice_count: 0,
        credit: 1,
        cursor: 0,
        query: vec![1, 2, 3],
        trace: TraceCtx::default(),
        tenant: String::new(),
    }
    .encode();
    // Zero the credit field in place: kind(1) id(8) top_k(4)
    // deadline(4) slice_index(4) slice_count(4) → credit at 25.
    sq[25..29].fill(0);
    assert!(matches!(Msg::decode(&sq), Err(WireError::Malformed(_))));

    let mut chunk = Msg::StreamChunk {
        id: 1,
        shard: 0,
        cursor: 1,
        hits: vec![],
    }
    .encode();
    // kind(1) id(8) shard(4) → cursor at 13.
    chunk[13..21].fill(0);
    assert!(matches!(Msg::decode(&chunk), Err(WireError::Malformed(_))));

    let mut credit = Msg::Credit { id: 1, credits: 1 }.encode();
    credit[9..13].fill(0);
    assert!(matches!(Msg::decode(&credit), Err(WireError::Malformed(_))));

    let mut resume = Msg::Resume {
        id: 1,
        deadline_ms: 0,
        credit: 1,
        token: StreamToken::default(),
        query: vec![],
        trace: TraceCtx::default(),
        tenant: String::new(),
    }
    .encode();
    // kind(1) id(8) deadline(4) → credit at 13.
    resume[13..17].fill(0);
    assert!(matches!(Msg::decode(&resume), Err(WireError::Malformed(_))));
}

/// Seeded fuzz over resume-token bodies: random binary blobs through
/// `StreamToken::decode`, random strings through `from_hex`, and valid
/// tokens with a lying cursor-count field. All must yield Ok or a
/// typed Malformed — never a panic, never a count-driven allocation.
#[test]
fn fuzz_stream_token_bodies_never_panic() {
    let mut seed = 0x0054_4F4B_454E_u64; // "TOKEN"
    let cases = fuzz_cases() / 10;
    for _ in 0..cases.max(100) {
        match splitmix64(&mut seed) % 3 {
            0 => {
                // Arbitrary binary bodies.
                let len = (splitmix64(&mut seed) as usize) % 256;
                let bytes: Vec<u8> = (0..len)
                    .map(|_| (splitmix64(&mut seed) & 0xFF) as u8)
                    .collect();
                match StreamToken::decode(&bytes) {
                    Ok(t) => assert!(t.cursors.len() <= bytes.len() / 12),
                    Err(WireError::Malformed(_)) => {}
                    Err(other) => panic!("unexpected error class {other:?}"),
                }
            }
            1 => {
                // Arbitrary hex-ish strings, some with non-hex bytes.
                let len = (splitmix64(&mut seed) as usize) % 128;
                let s: String = (0..len)
                    .map(|_| {
                        let c = (splitmix64(&mut seed) % 20) as u8;
                        (b'0' + c.min(b'z' - b'0')) as char
                    })
                    .collect();
                match StreamToken::from_hex(&s) {
                    Ok(_) | Err(WireError::Malformed(_)) => {}
                    Err(other) => panic!("unexpected error class {other:?}"),
                }
            }
            _ => {
                // A valid token whose cursor-count field lies upward:
                // the decoder must bound-check against the remaining
                // bytes instead of allocating `count` entries.
                let token = StreamToken {
                    trace_id: splitmix64(&mut seed),
                    query_crc: (splitmix64(&mut seed) & 0xFFFF_FFFF) as u32,
                    top_k: 10,
                    cursors: vec![(0, 1 + splitmix64(&mut seed) % 100)],
                };
                let mut bytes = token.encode();
                let lie = (1 + splitmix64(&mut seed) % u16::MAX as u64) as u16;
                bytes[16..18].copy_from_slice(&lie.to_le_bytes());
                match StreamToken::decode(&bytes) {
                    Ok(t) => assert_eq!(t.cursors.len(), lie as usize),
                    Err(WireError::Malformed(_)) => {}
                    Err(other) => panic!("unexpected error class {other:?}"),
                }
            }
        }
    }
}

/// The stream frames are strictly *new* kind bytes: a pre-stream
/// decoder sees `UnknownKind` (typed, recoverable) — and, the other
/// way, the non-stream reply a current server sends to an old client
/// is byte-for-byte what a pre-stream server would have sent. The
/// golden vectors pin the encodings; changing them breaks rolling
/// restarts.
#[test]
fn non_stream_replies_are_byte_stable_for_old_clients() {
    // Stream kinds occupy 15..=20 — outside the pre-stream kind space.
    for (msg, kind) in [
        (
            Msg::StreamQuery {
                id: 1,
                top_k: 5,
                deadline_ms: 0,
                slice_index: 0,
                slice_count: 0,
                credit: 4,
                cursor: 0,
                query: vec![],
                trace: TraceCtx::default(),
                tenant: String::new(),
            },
            15u8,
        ),
        (
            Msg::StreamChunk {
                id: 1,
                shard: 0,
                cursor: 1,
                hits: vec![],
            },
            16,
        ),
        (
            Msg::Progress {
                id: 1,
                cells_done: 0,
                cells_total: 0,
            },
            17,
        ),
        (Msg::Credit { id: 1, credits: 1 }, 18),
        (
            Msg::Resume {
                id: 1,
                deadline_ms: 0,
                credit: 1,
                token: StreamToken::default(),
                query: vec![],
                trace: TraceCtx::default(),
                tenant: String::new(),
            },
            19,
        ),
        (
            Msg::Fin {
                id: 1,
                digest: 0,
                degraded: false,
                missing_shards: vec![],
                trace_id: 0,
                timing: None,
                fidelity: Fidelity::Full,
            },
            20,
        ),
    ] {
        assert_eq!(msg.encode()[0], kind, "{msg:?} kind byte moved");
    }

    // Golden bytes for the one-shot reply path old clients decode.
    let hits = Msg::Hits {
        id: 0x0102_0304_0506_0708,
        degraded: false,
        missing_shards: vec![],
        hits: vec![Hit {
            db_index: 7,
            score: 42,
            precision: Precision::I16,
        }],
        trace_id: 0,
        timing: None,
        fidelity: Fidelity::Full,
    };
    let expect_hits: Vec<u8> = {
        let mut b = vec![2u8]; // KIND_HITS
        b.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        b.push(0); // degraded
        b.extend_from_slice(&0u32.to_le_bytes()); // missing count
        b.extend_from_slice(&1u32.to_le_bytes()); // hit count
        b.extend_from_slice(&7u64.to_le_bytes()); // db_index
        b.extend_from_slice(&42i32.to_le_bytes()); // score
        b.push(1); // precision code I16
        b // no extension tail: untraced, untimed, full fidelity
    };
    assert_eq!(hits.encode(), expect_hits, "Hits reply encoding moved");

    let err = Msg::Error {
        id: 9,
        err: RemoteError::Draining,
    };
    let expect_err: Vec<u8> = {
        let mut b = vec![3u8]; // KIND_ERROR
        b.extend_from_slice(&9u64.to_le_bytes());
        b.push(11); // Draining error code
        b.extend_from_slice(&0u64.to_le_bytes()); // a field
        b.extend_from_slice(&0u64.to_le_bytes()); // b field
        b.extend_from_slice(&0u64.to_le_bytes()); // c field
        b
    };
    assert_eq!(err.encode(), expect_err, "Error reply encoding moved");
}

/// A shard's `Fin` carries its timing summary on the `Hits` timing
/// extension; a `Fin` without one keeps its pre-timing bytes, and an
/// untimed frame from an older peer still decodes.
#[test]
fn fin_timing_extension_round_trips_and_stays_optional() {
    let untimed = Msg::Fin {
        id: 5,
        digest: 0xABCD_0123,
        degraded: true,
        missing_shards: vec![1],
        trace_id: 0,
        timing: None,
        fidelity: Fidelity::Full,
    };
    let expect: Vec<u8> = {
        let mut b = vec![20u8]; // KIND_FIN
        b.extend_from_slice(&5u64.to_le_bytes());
        b.extend_from_slice(&0xABCD_0123u32.to_le_bytes());
        b.push(1); // degraded
        b.extend_from_slice(&1u32.to_le_bytes()); // missing count
        b.extend_from_slice(&1u32.to_le_bytes()); // missing slice
        b // no extension tail: untraced, untimed, full fidelity
    };
    assert_eq!(untimed.encode(), expect, "untimed Fin encoding moved");
    assert_eq!(roundtrip(&untimed), untimed);

    let timed = Msg::Fin {
        id: 5,
        digest: 0xABCD_0123,
        degraded: true,
        missing_shards: vec![1],
        trace_id: 0,
        timing: Some(ShardTiming {
            shard: 2,
            root_span: 0x77,
            engine: "AVX2".into(),
            rtt_ns: 1_500_000,
            stages: vec![
                StageTiming {
                    stage: Stage::Queue,
                    ns: 10,
                },
                StageTiming {
                    stage: Stage::Kernel,
                    ns: 900_000,
                },
            ],
        }),
        fidelity: Fidelity::Full,
    };
    let bytes = timed.encode();
    assert!(bytes.starts_with(&expect), "timing rides in the tail only");
    assert_eq!(roundtrip(&timed), timed);
}
