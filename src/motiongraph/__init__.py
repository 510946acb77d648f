"""Motion-graph engine for audio-matched gesture playback.

Build a transition graph over a reference performance (poses + audio
features), search it for paths whose rhythm and keywords match a target
audio, and emit an edit decision list plus a skeleton preview.
"""

from .assembly import (
    BlendSchedule,
    BlendStep,
    EditDecisionList,
    RunEntry,
    TransitionEntry,
    assemble_edl,
    load_edl,
    make_blend_schedule,
    render_frames,
    render_preview,
    save_edl,
)
from .audio import (
    AudioFeatureTrack,
    EndpointFeature,
    KeywordDictionary,
    SegmentList,
    TranscriptWord,
    analyze_audio,
    default_dictionary,
    detect_onsets,
    match_keywords,
    read_wav,
    segment_target,
    write_wav,
)
from .errors import (
    AssemblyError,
    GraphParseError,
    MotionGraphError,
    SegmentUnreachableError,
    StructuralError,
    ValidationError,
)
from .graph import (
    GraphEdge,
    GraphNode,
    Thresholds,
    VideoMotionGraph,
    build_graph,
    compute_thresholds,
    load_graph,
    load_graph_file,
    save_graph,
    save_graph_file,
)
from .kernels import BACKEND, HAVE_NUMBA
from .pose import (
    Joint,
    JointState,
    MotionSequence,
    PoseFrame,
    Skeleton,
    batch_forward_kinematics,
    compute_joint_states,
    forward_kinematics,
    interpolate_pose,
    load_pose_track,
    pose_distance,
    save_pose_track,
)
from .search import (
    BeamConfig,
    PathCandidate,
    SearchResult,
    beam_search,
    duration_bounds,
    expand_segment,
    recompute_costs,
    resample_segment,
)
from .silhouette import (
    CameraModel,
    default_camera,
    rasterize_frames,
    rasterize_sequence,
    rasterize_silhouette,
    unpack_mask,
    write_pgm,
)

__version__ = "0.1.0"
