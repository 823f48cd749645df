// Fixture: the perf class declares `numtransfers`, which the fixture
// provider never emits (declared-but-unpublished drift).
pub const GRIDFTP_PERF_INFO: ObjectClass = ObjectClass {
    name: "GridFTPPerfInfo",
    required: &["cn", "hostname"],
    optional: &["avgrdbandwidth", "numtransfers"],
};
