"""Vision-based quadrotor obstacle avoidance in depth-image space:
synthetic depth rendering, hallucinated-configuration collision checks,
escape search, and switched-LQR look-ahead trajectory generation.
"""

from .collision import EscapeResult, Verdict, check_configuration, find_escape, waypoints2collision
from .frames import (
    CameraIntrinsics,
    Configuration,
    body_to_camera_rotation,
    camera_to_world,
    project,
    rotation_zxy,
    world_to_camera,
)
from .lqr import (
    LookAheadTrajectory,
    ModeWeights,
    StateVec,
    are_residual,
    rollout,
    solve_are_axis,
)
from .oracle import OracleReport, brute_force_collision, verify_mission
from .planner import (
    GoalRegion,
    PlannerConfig,
    guard_l1_to_l0,
    run_mission,
    step_planner,
)
from .scenario import ScenarioConfig, ScenarioError, load_scenario
from .scene import (
    Box,
    DepthImage,
    RobotModel,
    Scene,
    Sphere,
    Wall,
    read_pfm,
    render_robot_footprint,
    render_scene_depth,
    write_pfm,
)

__version__ = "0.1.0"
