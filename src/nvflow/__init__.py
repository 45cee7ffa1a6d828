"""Demonstration-free manipulation planning from 3-d object flow.

The toolkit turns a short 3-d "flow" of object keypoints into robot commands:
rigid objects go through least-squares pose fitting, grasp composition,
inverse kinematics and trajectory optimization; deformable objects go through
particle-model predictive control.  A synthetic scene harness provides exact
ground truth for end-to-end grading, and the ``nvflow`` command line drives
the whole pipeline.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
